package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/trace"
)

// buildTracedPair is buildPair with the tracing subsystem armed at
// sample-every-1, returning the test-harness handles alongside the
// endpoints (exercising the exported ForTest accessors the bench
// package uses).
func buildTracedPair(t *testing.T, encrypted bool) (a, b *Endpoint, sc *trace.Scope, tr *trace.Tracer, rt *Runtime) {
	t.Helper()
	cfg := Config{
		Trace:            true,
		TraceSampleEvery: 1,
		Workers:          []WorkerSpec{{}},
		PoolNodes:        16,
		NodePayload:      128,
		Actors: []Spec{
			{Name: "a", Worker: 0, Body: func(*Self) {}},
			{Name: "b", Worker: 0, Body: func(*Self) {}},
		},
		Channels: []ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: 8}},
	}
	if encrypted {
		cfg.Enclaves = []EnclaveSpec{{Name: "ea"}, {Name: "eb"}}
		cfg.Actors[0].Enclave = "ea"
		cfg.Actors[1].Enclave = "eb"
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(rt.Stop)
	if a, err = rt.EndpointForTest("a", "link"); err != nil {
		t.Fatal(err)
	}
	if b, err = rt.EndpointForTest("b", "link"); err != nil {
		t.Fatal(err)
	}
	if sc, err = rt.ScopeForTest("a"); err != nil {
		t.Fatal(err)
	}
	if rt.Platform() == nil {
		t.Fatal("Platform() = nil")
	}
	return a, b, sc, rt.Tracer(), rt
}

// kindCount tallies a snapshot's span kinds for one trace.
func kindCount(spans []trace.Span, id uint64) map[trace.Kind]int {
	kinds := make(map[trace.Kind]int)
	for _, s := range spans {
		if s.TraceID == id {
			kinds[s.Kind]++
		}
	}
	return kinds
}

// TestTraceSendRecvPlain checks the plaintext hop edges: a traced Send
// records a send span, stamps the node header, and the Recv records the
// mailbox dwell and adopts the context into the receiver's scope.
func TestTraceSendRecvPlain(t *testing.T) {
	a, b, sc, tr, rt := buildTracedPair(t, false)
	ctx := tr.NewRoot()
	sc.Adopt(ctx)
	if err := a.Send([]byte("traced")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf)
	if err != nil || !ok || string(buf[:n]) != "traced" {
		t.Fatalf("Recv: %q ok=%v err=%v", buf[:n], ok, err)
	}
	kinds := kindCount(tr.Snapshot(), ctx.TraceID)
	if kinds[trace.KindSend] != 1 || kinds[trace.KindDwell] != 1 {
		t.Fatalf("plain hop kinds = %v, want one send + one dwell", kinds)
	}
	bsc, err := rt.ScopeForTest("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := bsc.Active(); got.TraceID != ctx.TraceID {
		t.Fatalf("receiver scope = %+v, want trace %d adopted", got, ctx.TraceID)
	}

	// An untraced send on the same channel must not grow the trace.
	sc.Clear()
	if err := a.Send([]byte("untraced")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Recv(buf); !ok {
		t.Fatal("untraced Recv lost the message")
	}
	if again := kindCount(tr.Snapshot(), ctx.TraceID); again[trace.KindSend] != 1 {
		t.Fatalf("untraced send extended trace %d: %v", ctx.TraceID, again)
	}
}

// TestTraceSendRecvEncrypted checks the sealed hop: the context crosses
// inside the frame (seal on send; crossing, dwell and open on receive),
// MaxPayload shrinks by the trailer, and an untraced message on the
// armed channel still round-trips cleanly.
func TestTraceSendRecvEncrypted(t *testing.T) {
	a, b, sc, tr, _ := buildTracedPair(t, true)
	if got, want := a.MaxPayload(), 128-ecrypto.Overhead-trace.HeaderSize; got != want {
		t.Fatalf("armed MaxPayload = %d, want %d", got, want)
	}
	ctx := tr.NewRoot()
	sc.Adopt(ctx)
	if err := a.Send([]byte("sealed+traced")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf)
	if err != nil || !ok || string(buf[:n]) != "sealed+traced" {
		t.Fatalf("Recv: %q ok=%v err=%v", buf[:n], ok, err)
	}
	kinds := kindCount(tr.Snapshot(), ctx.TraceID)
	for _, k := range []trace.Kind{trace.KindSend, trace.KindSeal, trace.KindCrossing, trace.KindDwell, trace.KindOpen} {
		if kinds[k] == 0 {
			t.Fatalf("encrypted hop missing %s span: %v", k, kinds)
		}
	}

	// Untraced on the armed channel: trailer still framed, still stripped.
	sc.Clear()
	if err := a.Send([]byte("sealed only")); err != nil {
		t.Fatal(err)
	}
	n, ok, err = b.Recv(buf)
	if err != nil || !ok || string(buf[:n]) != "sealed only" {
		t.Fatalf("untraced armed Recv: %q ok=%v err=%v", buf[:n], ok, err)
	}
}

// TestTracePipelineAcrossEnclaves runs a live 3-worker pipeline through
// two enclaves — src (untrusted) → mid (enclave ea) → sink (enclave eb)
// → drain (untrusted, plaintext return) — with every message sampled,
// while snapshot goroutines read the rings. Under -race this is the
// concurrent span-recording test; the assertion is a connected trace
// whose spans cover the send/seal/crossing/open/dwell/invoke edges and
// at least the three pipeline workers.
func TestTracePipelineAcrossEnclaves(t *testing.T) {
	const total = 400
	var sent, delivered atomic.Int64
	var tick uint32
	buf := make([]byte, 64)
	mbuf := make([]byte, 64)
	dbuf := make([]byte, 64)
	cfg := Config{
		Trace:            true,
		TraceSampleEvery: 1,
		Workers:          []WorkerSpec{{}, {}, {}},
		PoolNodes:        128,
		NodePayload:      128,
		Enclaves:         []EnclaveSpec{{Name: "ea"}, {Name: "eb"}},
		Channels: []ChannelSpec{
			{Name: "fwd", A: "src", B: "mid", Capacity: 16},
			{Name: "next", A: "mid", B: "sink", Capacity: 16},
			{Name: "out", A: "sink", B: "drain", Capacity: 16, Plaintext: true},
		},
		Actors: []Spec{
			{Name: "src", Worker: 0, Body: func(self *Self) {
				if sent.Load() >= total {
					return
				}
				tr := self.Tracer()
				if ctx, ok := tr.MaybeRoot(&tick); ok {
					self.TraceScope().Adopt(ctx)
				}
				if self.MustChannel("fwd").Send([]byte("ping")) == nil {
					sent.Add(1)
					self.Progress()
				}
			}},
			{Name: "mid", Worker: 1, Enclave: "ea", Body: func(self *Self) {
				n, ok, err := self.MustChannel("fwd").Recv(mbuf)
				if err != nil || !ok {
					return
				}
				_ = self.MustChannel("next").Send(mbuf[:n]) //sendcheck:ok
				self.Progress()
			}},
			{Name: "sink", Worker: 2, Enclave: "eb", Body: func(self *Self) {
				n, ok, err := self.MustChannel("next").Recv(buf)
				if err != nil || !ok {
					return
				}
				// A leaf span through the Begin/End helper pair.
				tr := self.Tracer()
				start := tr.Begin(self.TraceScope())
				tr.End(self.WorkerID(), self.TraceScope(), trace.KindRoute, 0, start)
				_ = self.MustChannel("out").Send(buf[:n]) //sendcheck:ok
				self.Progress()
			}},
			{Name: "drain", Worker: 0, Body: func(self *Self) {
				if _, ok, _ := self.MustChannel("out").Recv(dbuf); ok {
					delivered.Add(1)
					self.Progress()
				}
			}},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = rt.Tracer().Snapshot()
				}
			}
		}()
	}
	defer func() { close(done); wg.Wait() }()

	want := []trace.Kind{
		trace.KindSend, trace.KindSeal, trace.KindCrossing, trace.KindOpen,
		trace.KindDwell, trace.KindInvoke, trace.KindRoute,
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := rt.Tracer().Snapshot()
		byTrace := make(map[uint64][]trace.Span)
		for _, s := range spans {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
		for id, group := range byTrace {
			kinds := make(map[trace.Kind]bool)
			ids := make(map[uint32]bool)
			workers := make(map[int32]bool)
			for _, s := range group {
				kinds[s.Kind] = true
				ids[s.ID] = true
				workers[s.Worker] = true
			}
			complete := true
			for _, k := range want {
				complete = complete && kinds[k]
			}
			if !complete || len(workers) < 3 {
				continue
			}
			for _, s := range group {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("trace %d disconnected: span %d has unknown parent %d\n%+v", id, s.ID, s.Parent, group)
				}
			}
			return // connected, complete, cross-worker: done
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete pipeline trace after %d sent / %d delivered (%d spans)",
				sent.Load(), delivered.Load(), len(spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
