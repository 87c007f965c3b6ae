package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/telemetry"
)

// TestProfiledKVEndToEnd is the cost-accounting acceptance run: against
// the trusted, encrypted KV deployment it asserts that the continuous
// profile layer observes the real traffic shape — a connected
// FRONTEND → KVSTORE communication edge, crossings and seal/open work
// charged to the enclaved store actor — and that the same model survives
// a trip through the versioned JSONL codec and renders in eactors top's
// polling path against a live telemetry endpoint. Clients run while the
// profile is snapshotted, so under -race this doubles as the concurrent
// collector-read test.
func TestProfiledKVEndToEnd(t *testing.T) {
	var encKey [ecrypto.KeySize]byte
	for i := range encKey {
		encKey[i] = byte(i + 1)
	}
	srv, err := Start(Options{
		Shards:        2,
		Trusted:       true,
		EncryptionKey: &encKey,
		StoreSize:     1 << 20,
		Telemetry:     true,
		Trace:         true,
		// Sample every drain so mailbox-dwell spans fold in quickly.
		TraceSampleEvery: 1,
		Profile:          true,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Stop()
	if !srv.rt.ProfileEnabled() {
		t.Fatal("ProfileEnabled() = false with Options.Profile set")
	}
	if srv.ProfileSource() == nil {
		t.Fatal("ProfileSource() = nil with Options.Profile set")
	}

	client, err := DialPipelined(srv.Addr(), PipelineOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("DialPipelined: %v", err)
	}
	defer client.Close()
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := client.Set(k, append([]byte("val:"), k...)); err != nil {
			t.Fatalf("Set %q: %v", k, err)
		}
		if v, ok, err := client.Get(k); err != nil || !ok || !bytes.HasPrefix(v, []byte("val:")) {
			t.Fatalf("Get %q = %q, %v, %v", k, v, ok, err)
		}
	}

	// The workers run asynchronously, so poll the profile until the
	// traffic shows up (it must — the Gets above were answered).
	var m profile.Model
	deadline := time.Now().Add(15 * time.Second)
	for {
		m = srv.CostProfile()
		if profiledStore(t, m, false) != nil && frontendEdge(m) != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no profiled frontend->kvstore traffic after 15s:\n%+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The enclaved store actor must carry the boundary costs: crossings
	// for entering its enclave, and seal/open work for the encrypted req
	// channel it answers on.
	store := profiledStore(t, m, true)
	if store.Crossings == 0 {
		t.Errorf("enclaved %s: Crossings = 0, want > 0", store.Name)
	}
	if store.SealOps == 0 && store.OpenOps == 0 {
		t.Errorf("enclaved %s: no seal/open ops charged (seal=%d open=%d)",
			store.Name, store.SealOps, store.OpenOps)
	}
	if store.Invocations == 0 || store.MsgsRecv == 0 {
		t.Errorf("enclaved %s: invocations=%d msgs_recv=%d, want both > 0",
			store.Name, store.Invocations, store.MsgsRecv)
	}
	edge := frontendEdge(m)
	if edge.Msgs == 0 || edge.Bytes == 0 {
		t.Errorf("edge %s->%s (%s): msgs=%d bytes=%d, want both > 0",
			edge.Src, edge.Dst, edge.Channel, edge.Msgs, edge.Bytes)
	}

	// The model must survive the versioned JSONL codec byte-for-byte.
	var rec bytes.Buffer
	if err := m.Encode(&rec); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := profile.Decode(rec.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("JSONL round-trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	// One polling cycle of the eactors top path: serve the profile over
	// the real telemetry endpoint, fetch it back, render the table.
	bound, stop, err := telemetry.Serve("127.0.0.1:0", srv.Telemetry(),
		telemetry.WithProfile(srv.ProfileSource()))
	if err != nil {
		t.Fatalf("telemetry.Serve: %v", err)
	}
	defer stop()
	fetched, raw, err := profile.Fetch(bound)
	if err != nil {
		t.Fatalf("profile.Fetch(%s): %v", bound, err)
	}
	if len(raw) == 0 || len(fetched.Actors) == 0 {
		t.Fatalf("Fetch(%s) returned an empty profile", bound)
	}
	var table bytes.Buffer
	profile.RenderTop(&table, profile.Model{}, fetched, 0)
	out := table.String()
	for _, want := range []string{"frontend", "kvstore-0", "hottest edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("eactors top render missing %q:\n%s", want, out)
		}
	}
}

// profiledStore returns the first enclaved kvstore actor that has
// received traffic, or nil. With require set it fails the test instead
// of returning nil.
func profiledStore(t *testing.T, m profile.Model, require bool) *profile.ActorCost {
	t.Helper()
	for i := range m.Actors {
		a := &m.Actors[i]
		if strings.HasPrefix(a.Name, "kvstore-") && a.Enclave != "" && a.MsgsRecv > 0 {
			return a
		}
	}
	if require {
		t.Fatalf("no enclaved kvstore actor with traffic in %+v", m.Actors)
	}
	return nil
}

// frontendEdge returns the frontend→kvstore edge with traffic, or nil.
func frontendEdge(m profile.Model) *profile.EdgeCost {
	for i := range m.Edges {
		e := &m.Edges[i]
		if e.Src == "frontend" && strings.HasPrefix(e.Dst, "kvstore-") && e.Msgs > 0 {
			return e
		}
	}
	return nil
}
