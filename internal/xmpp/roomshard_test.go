package xmpp_test

import (
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
)

// TestDedicatedRoomFanout runs a group chat confined to its own enclave
// (Section 2.1's per-group-chat compartmentalisation) and checks the
// full path: shard forwards over an encrypted channel, the room shard
// re-encrypts per member, members receive.
func TestDedicatedRoomFanout(t *testing.T) {
	srv := startServer(t, xmpp.Options{
		Shards:         2,
		Trusted:        true,
		EnclaveCount:   2,
		DedicatedRooms: []string{"warroom"},
	})

	users := []*client.Client{
		dial(t, srv.Addr(), "u0"),
		dial(t, srv.Addr(), "u1"),
		dial(t, srv.Addr(), "u2"),
	}
	for _, u := range users {
		if err := u.JoinRoom("warroom"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)

	if err := users[0].SendGroupMessage("warroom", "classified"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		msg, err := users[i].ReadMessage(10 * time.Second)
		if err != nil {
			t.Fatalf("u%d: %v", i, err)
		}
		if !msg.Group || msg.Body != "classified" || msg.From != "u0" {
			t.Fatalf("u%d got %+v", i, msg)
		}
	}
	if got := srv.Stats().GroupFanout; got != 2 {
		t.Fatalf("GroupFanout = %d, want 2", got)
	}

	// The room enclave must exist and the forward channels must be
	// encrypted (regular shard -> room shard crosses enclaves).
	roomEnclave := false
	for _, e := range srv.Runtime().Report().Enclaves {
		roomEnclave = roomEnclave || e.Name == "xmpp-room-0"
	}
	if !roomEnclave {
		t.Fatal("dedicated room enclave missing")
	}
	for i := 0; i < 2; i++ {
		name := "roomfwd-" + string(rune('0'+i)) + "-0"
		ch, ok := srv.Runtime().ChannelByName(name)
		if !ok {
			t.Fatalf("forward channel %s missing", name)
		}
		if !ch.Encrypted() {
			t.Fatalf("forward channel %s is plaintext", name)
		}
	}
}

// TestDedicatedRoomCoexistsWithRegularRooms: regular rooms keep their
// old shard-local fan-out while dedicated rooms take the enclave path.
func TestDedicatedRoomCoexistsWithRegularRooms(t *testing.T) {
	srv := startServer(t, xmpp.Options{
		Shards:         1,
		Trusted:        true,
		DedicatedRooms: []string{"vault"},
	})
	a := dial(t, srv.Addr(), "a")
	b := dial(t, srv.Addr(), "b")
	for _, u := range []*client.Client{a, b} {
		if err := u.JoinRoom("vault"); err != nil {
			t.Fatal(err)
		}
		if err := u.JoinRoom("lobby"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)

	if err := a.SendGroupMessage("vault", "in the enclave"); err != nil {
		t.Fatal(err)
	}
	msg, err := b.ReadMessage(10 * time.Second)
	if err != nil || msg.Body != "in the enclave" || msg.To != "vault" {
		t.Fatalf("vault: %+v %v", msg, err)
	}

	if err := b.SendGroupMessage("lobby", "in the shard"); err != nil {
		t.Fatal(err)
	}
	msg, err = a.ReadMessage(10 * time.Second)
	if err != nil || msg.Body != "in the shard" || msg.To != "lobby" {
		t.Fatalf("lobby: %+v %v", msg, err)
	}
}

// TestDedicatedRoomUntrusted: the feature also deploys without enclaves
// (flexibility), just without the isolation benefit.
func TestDedicatedRoomUntrusted(t *testing.T) {
	srv := startServer(t, xmpp.Options{
		Shards:         1,
		DedicatedRooms: []string{"plain"},
	})
	a := dial(t, srv.Addr(), "a")
	b := dial(t, srv.Addr(), "b")
	for _, u := range []*client.Client{a, b} {
		if err := u.JoinRoom("plain"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := a.SendGroupMessage("plain", "hello"); err != nil {
		t.Fatal(err)
	}
	if msg, err := b.ReadMessage(10 * time.Second); err != nil || msg.Body != "hello" {
		t.Fatalf("untrusted dedicated room: %+v %v", msg, err)
	}
}
