package xmpp_test

import (
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
)

// TestCapstoneFullDeployment exercises every subsystem together, the
// way a real operator would run the service:
//
//   - an SGX platform with the calibrated cost model (not zeroed),
//   - the Online list in an encrypted Persistent Object Store,
//   - four shards in two enclaves plus an enclaved CONNECTOR,
//   - a dedicated room enclave,
//   - O2O routing, group fan-out, iq queries, disconnect cleanup,
//   - and a final Runtime.Report consistency check.
func TestCapstoneFullDeployment(t *testing.T) {
	var dirKey [ecrypto.KeySize]byte
	copy(dirKey[:], "capstone-directory-key-32-bytes!")
	store, err := pos.Open(pos.Options{SizeBytes: 8 << 20, EncryptionKey: &dirKey})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	platform := sgx.NewPlatform() // real cost model: charges apply
	srv, err := xmpp.Start(xmpp.Options{
		Shards:         4,
		Trusted:        true,
		EnclaveCount:   2,
		DedicatedRooms: []string{"boardroom"},
		DirectoryStore: store,
		Platform:       platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	users := map[string]*client.Client{}
	for _, name := range []string{"alice", "bob", "carol", "dave"} {
		c, err := client.Dial(srv.Addr(), name, 30*time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		defer c.Close()
		users[name] = c
	}
	waitFor(t, func() bool { return srv.Online().Len() == 4 }, "all users in the POS directory")

	// O2O in both directions across shards.
	if err := users["alice"].SendMessage("dave", "cross-shard hello"); err != nil {
		t.Fatal(err)
	}
	msg, err := users["dave"].ReadMessage(10 * time.Second)
	if err != nil || msg.Body != "cross-shard hello" {
		t.Fatalf("O2O: %+v %v", msg, err)
	}

	// Presence query through iq.
	if !client.WhoOnline(iq(t, users["bob"], client.WhoQuery("carol"))) {
		t.Fatal("carol reported offline")
	}

	// Dedicated-room group chat: all four join, alice sends.
	for name, c := range users {
		if err := c.JoinRoom("boardroom"); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := users["alice"].SendGroupMessage("boardroom", "quarterly numbers"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bob", "carol", "dave"} {
		msg, err := users[name].ReadMessage(10 * time.Second)
		if err != nil {
			t.Fatalf("%s group read: %v", name, err)
		}
		if msg.Body != "quarterly numbers" || !msg.Group {
			t.Fatalf("%s got %+v", name, msg)
		}
	}

	// Disconnect cleanup flows back into the POS directory.
	_ = users["dave"].Close()
	waitFor(t, func() bool { return srv.Online().Len() == 3 }, "dave removed from POS directory")

	// Service counters.
	st := srv.Stats()
	if st.Connections != 4 || st.Routed < 1 || st.GroupFanout != 3 {
		t.Fatalf("stats = %+v", st)
	}

	// Runtime report consistency.
	report := srv.Runtime().Report()
	if len(report.FailedActors) != 0 {
		t.Fatalf("failed actors: %v", report.FailedActors)
	}
	// connector + 2 shard enclaves + 1 room enclave.
	if len(report.Enclaves) != 4 {
		t.Fatalf("enclaves in report: %d (%+v)", len(report.Enclaves), report.Enclaves)
	}
	var sawEncryptedHandoff bool
	for _, ch := range report.Channels {
		if ch.Encrypted && ch.Stats.AToB+ch.Stats.BToA > 0 {
			sawEncryptedHandoff = true
		}
	}
	if !sawEncryptedHandoff {
		t.Fatal("no encrypted channel carried traffic")
	}
	if report.Platform.Crossings == 0 {
		t.Fatal("no enclave crossings recorded under the real cost model")
	}
	// The directory put its entries in the store.
	if store.Stats().Sets < 4 {
		t.Fatalf("store Sets = %d", store.Stats().Sets)
	}
}
