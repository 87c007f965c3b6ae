package profile

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/eactors/eactors-go/internal/trace"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if cell := c.RegisterActor(0, "a", "", 0); cell != nil {
		t.Fatal("nil collector must hand out nil actor cells")
	}
	if cell := c.RegisterEdge(0, 1, "ch", func() uint64 { return 1 }); cell != nil {
		t.Fatal("nil collector must hand out nil edge cells")
	}
	c.RegisterEnclave("e")
	c.RegisterDwell(0, 0, 0)
	c.FoldSpans([]trace.Span{{ID: 1, Kind: trace.KindDwell}})
	m := c.Snapshot(42)
	if m.V != SnapshotVersion || m.CapturedAtNs != 42 || m.SampleEvery != 0 || len(m.Actors) != 0 {
		t.Fatalf("nil Snapshot = %+v, want empty versioned model", m)
	}
}

func TestRegisterActorIdempotent(t *testing.T) {
	c := NewCollector()
	a := c.RegisterActor(3, "x", "e", 1) // sparse tag grows the table
	b := c.RegisterActor(3, "ignored", "ignored", 9)
	if a != b {
		t.Fatal("re-registering a tag must return the same cell")
	}
	m := c.Snapshot(0)
	if len(m.Actors) != 1 || m.Actors[0].Name != "x" || m.Actors[0].Worker != 1 {
		t.Fatalf("snapshot = %+v, want the first registration's metadata", m.Actors)
	}
}

func TestSnapshotEdgesAndEnclaves(t *testing.T) {
	c := NewCollector()
	c.RegisterActor(0, "a", "encl", 0)
	c.RegisterActor(1, "b", "", 1)
	// The readers stand in for the sending endpoints' traffic counters.
	var hotSent, coldSent, warmSent atomic.Uint64
	hot := c.RegisterEdge(0, 1, "hot", hotSent.Load)
	c.RegisterEdge(1, 0, "cold", coldSent.Load) // no traffic: must be omitted
	c.RegisterEdge(0, 1, "warm", warmSent.Load)
	hotSent.Add(10)
	hot.Bytes.Add(1000)
	warmSent.Add(3)
	c.RegisterEnclave("encl")

	cell := c.RegisterActor(0, "a", "encl", 0)
	cell.Crossings.Add(5)

	m := c.Snapshot(1)
	if len(m.Edges) != 2 {
		t.Fatalf("edges = %+v, want 2 (zero-traffic edge omitted)", m.Edges)
	}
	if m.Edges[0].Channel != "hot" || m.Edges[0].Msgs != 10 || m.Edges[0].Src != "a" || m.Edges[0].Dst != "b" {
		t.Fatalf("edges not sorted by traffic / resolved to names: %+v", m.Edges)
	}
	if a := m.Actors[0]; a.MsgsSent != 13 || a.BytesSent != 1000 {
		t.Fatalf("actor a sent %d msgs / %d bytes, want 13 / 1000 (the sum of its outgoing edges)", a.MsgsSent, a.BytesSent)
	}
	if len(m.Enclaves) != 1 {
		t.Fatalf("enclaves = %+v, want 1", m.Enclaves)
	}
	if e := m.Enclaves[0]; e.Name != "encl" || e.Crossings != 5 {
		t.Fatalf("enclave = %+v, want encl with crossings=5 (member-actor sum)", e)
	}
}

// naiveCosts is the reference model: a plain map updated under one big
// lock, no sharding, no atomics.
type naiveCosts struct {
	mu   sync.Mutex
	inv  map[int]uint64
	sent map[int]uint64
}

// TestCollectorMatchesNaiveReference drives the same randomized update
// schedule into the collector's cells (concurrently, as the runtime
// does) and a naive locked reference, then requires exact agreement —
// counters are exact, never sampled. Run under -race this also proves
// the cells are data-race free with concurrent snapshot readers.
func TestCollectorMatchesNaiveReference(t *testing.T) {
	const actors = 4
	f := func(seed int64, opsRaw uint16) bool {
		ops := int(opsRaw)%512 + 64
		c := NewCollector()
		cells := make([]*ActorCell, actors)
		sent := make([]atomic.Uint64, actors) // the actors' endpoint counters
		for i := range cells {
			cells[i] = c.RegisterActor(uint32(i), string(rune('a'+i)), "", i)
			c.RegisterEdge(uint32(i), uint32((i+1)%actors), "ring", sent[i].Load)
		}
		ref := &naiveCosts{inv: map[int]uint64{}, sent: map[int]uint64{}}

		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)))
				for i := 0; i < ops; i++ {
					actor := rng.Intn(actors)
					n := uint64(rng.Intn(100))
					cells[actor].Invocations.Add(1)
					sent[actor].Add(n)
					ref.mu.Lock()
					ref.inv[actor]++
					ref.sent[actor] += n
					ref.mu.Unlock()
				}
			}(w)
		}
		// Concurrent reader: snapshots must not disturb the totals.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				_ = c.Snapshot(int64(i))
			}
		}()
		wg.Wait()
		<-done

		m := c.Snapshot(0)
		for _, a := range m.Actors {
			idx := int(a.Name[0] - 'a')
			if a.Invocations != ref.inv[idx] || a.MsgsSent != ref.sent[idx] {
				t.Logf("actor %s: collector inv=%d sent=%d, reference inv=%d sent=%d",
					a.Name, a.Invocations, a.MsgsSent, ref.inv[idx], ref.sent[idx])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldSpansAttributesDwell(t *testing.T) {
	c := NewCollector()
	c.RegisterActor(0, "recv", "", 1)
	c.RegisterDwell(7, 1, 0) // channel tag 7 received on worker 1 → actor 0

	spans := []trace.Span{
		{ID: 1, Kind: trace.KindDwell, Ref: 7, Worker: 1, Dur: 100},
		{ID: 2, Kind: trace.KindDwell, Ref: 7, Worker: 1, Dur: 200},
		{ID: 3, Kind: trace.KindDwell, Ref: 9, Worker: 1, Dur: 400}, // unregistered channel
		{ID: 4, Kind: trace.KindInvoke, Ref: 7, Worker: 1, Dur: 800},
		{ID: 5, Kind: trace.KindDwell, Ref: 7, Worker: 1, Dur: -50}, // torn slot
		{ID: 0, Kind: trace.KindDwell, Ref: 7, Worker: 1, Dur: 999}, // invalid slot
	}
	c.FoldSpans(spans)
	m := c.Snapshot(0)
	if m.Actors[0].DwellNs != 300 || m.Actors[0].DwellSamples != 2 {
		t.Fatalf("dwell = %d/%d, want 300/2 (only valid dwell spans of registered channels)",
			m.Actors[0].DwellNs, m.Actors[0].DwellSamples)
	}

	// Overlapping snapshots: re-folding the same spans is a no-op, new
	// spans past the high-water mark still land.
	c.FoldSpans(spans)
	c.FoldSpans(append(spans, trace.Span{ID: 6, Kind: trace.KindDwell, Ref: 7, Worker: 1, Dur: 1000}))
	m = c.Snapshot(0)
	if m.Actors[0].DwellNs != 1300 || m.Actors[0].DwellSamples != 3 {
		t.Fatalf("after overlapping folds dwell = %d/%d, want 1300/3 (no double counting)",
			m.Actors[0].DwellNs, m.Actors[0].DwellSamples)
	}
}

func TestFoldSpansWrapSafe(t *testing.T) {
	c := NewCollector()
	c.RegisterActor(0, "recv", "", 0)
	c.RegisterDwell(1, 0, 0)
	// Walk the high-water mark toward the uint32 wrap the way real span
	// IDs move — monotonically, in windows smaller than 2^31 — then past
	// it: IDs 1, 2 after the wrap (span IDs are never 0) must read as
	// newer than 2^32-1.
	c.FoldSpans([]trace.Span{
		{ID: 1<<31 - 1, Kind: trace.KindDwell, Ref: 1, Worker: 0, Dur: 10},
	})
	c.FoldSpans([]trace.Span{
		{ID: ^uint32(0) - 1, Kind: trace.KindDwell, Ref: 1, Worker: 0, Dur: 10},
	})
	c.FoldSpans([]trace.Span{
		{ID: ^uint32(0), Kind: trace.KindDwell, Ref: 1, Worker: 0, Dur: 10},
	})
	c.FoldSpans([]trace.Span{
		{ID: 1, Kind: trace.KindDwell, Ref: 1, Worker: 0, Dur: 10},
		{ID: 2, Kind: trace.KindDwell, Ref: 1, Worker: 0, Dur: 10},
	})
	m := c.Snapshot(0)
	if m.Actors[0].DwellSamples != 5 {
		t.Fatalf("dwell samples across ID wrap = %d, want 5", m.Actors[0].DwellSamples)
	}
}
