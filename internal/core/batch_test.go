package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/mem"
)

func frames(msgs ...string) [][]byte {
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = []byte(m)
	}
	return out
}

func TestSendBatchRecvBatchPlaintext(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	sent, err := a.SendBatch(frames("one", "two", "three"))
	if err != nil || sent != 3 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	bufs, lens := BatchBufs(8, 64)
	n, err := b.RecvBatch(bufs, lens)
	if err != nil || n != 3 {
		t.Fatalf("RecvBatch = %d, %v", n, err)
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := string(bufs[i][:lens[i]]); got != want {
			t.Fatalf("message %d = %q, want %q", i, got, want)
		}
	}
	if a.Sent() != 3 || b.Received() != 3 {
		t.Fatalf("counters: sent=%d received=%d", a.Sent(), b.Received())
	}
	// All nodes must be back in the pool after the round trip.
	if free := a.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d, want 16", free)
	}
}

func TestSendBatchRecvBatchEncrypted(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 256)
	msgs := []string{"alpha", "bravo", "charlie", "delta"}
	sent, err := a.SendBatch(frames(msgs...))
	if err != nil || sent != len(msgs) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	// Ciphertext on the wire: drain every node, inspect, and requeue in
	// order (a single re-enqueue would rotate the FIFO).
	var wire []*mem.Node
	for {
		node, ok := b.in.Dequeue()
		if !ok {
			break
		}
		if bytes.Contains(node.Payload(), []byte("alpha")) {
			t.Fatal("plaintext visible on cross-enclave wire after SendBatch")
		}
		wire = append(wire, node)
	}
	for _, node := range wire {
		if !b.in.Enqueue(node) {
			t.Fatal("re-enqueue failed")
		}
	}
	bufs, lens := BatchBufs(8, 256)
	n, err := b.RecvBatch(bufs, lens)
	if err != nil || n != len(msgs) {
		t.Fatalf("RecvBatch = %d, %v", n, err)
	}
	for i, want := range msgs {
		if got := string(bufs[i][:lens[i]]); got != want {
			t.Fatalf("message %d = %q, want %q", i, got, want)
		}
	}
}

// TestBatchFIFOAcrossMixedOps interleaves single and batch operations on
// an encrypted channel: order and the replay counter must hold across
// every batch boundary.
func TestBatchFIFOAcrossMixedOps(t *testing.T) {
	a, b, _ := buildPair(t, true, 16, 32, 128)
	if err := a.Send([]byte("m0")); err != nil {
		t.Fatal(err)
	}
	if sent, err := a.SendBatch(frames("m1", "m2", "m3")); err != nil || sent != 3 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	if err := a.Send([]byte("m4")); err != nil {
		t.Fatal(err)
	}
	if sent, err := a.SendBatch(frames("m5", "m6")); err != nil || sent != 2 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}

	next := 0
	expect := func(got string) {
		if want := fmt.Sprintf("m%d", next); got != want {
			t.Fatalf("FIFO violated: got %q, want %q", got, want)
		}
		next++
	}
	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf) // single recv first
	if !ok || err != nil {
		t.Fatalf("Recv: ok=%v err=%v", ok, err)
	}
	expect(string(buf[:n]))
	bufs, lens := BatchBufs(3, 128)
	got, err := b.RecvBatch(bufs, lens) // batch across the send-batch boundary
	if err != nil {
		t.Fatalf("RecvBatch: %v", err)
	}
	for i := 0; i < got; i++ {
		expect(string(bufs[i][:lens[i]]))
	}
	n, ok, err = b.Recv(buf)
	if !ok || err != nil {
		t.Fatalf("Recv: ok=%v err=%v", ok, err)
	}
	expect(string(buf[:n]))
	got, err = b.RecvBatch(bufs, lens)
	if err != nil {
		t.Fatalf("RecvBatch: %v", err)
	}
	for i := 0; i < got; i++ {
		expect(string(bufs[i][:lens[i]]))
	}
	if next != 7 {
		t.Fatalf("consumed %d of 7 messages", next)
	}
}

// TestRecvBatchReplayRejected re-delivers a captured ciphertext inside a
// batch: the duplicate is dropped, later messages still arrive, and the
// replay error is reported.
func TestRecvBatchReplayRejected(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if sent, err := a.SendBatch(frames("first", "second")); err != nil || sent != 2 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	// Hostile runtime: duplicate the first node behind the second.
	n1, _ := b.in.Dequeue()
	n2, _ := b.in.Dequeue()
	dup := b.pool.Get()
	if dup == nil {
		t.Fatal("pool empty")
	}
	if err := dup.SetPayload(n1.Payload()); err != nil {
		t.Fatal(err)
	}
	b.in.Enqueue(n1)
	b.in.Enqueue(dup)
	b.in.Enqueue(n2)

	bufs, lens := BatchBufs(4, 128)
	got, err := b.RecvBatch(bufs, lens)
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("RecvBatch err = %v, want ErrReplay", err)
	}
	if got != 2 {
		t.Fatalf("RecvBatch delivered %d, want 2 (replay dropped, rest compacted)", got)
	}
	if string(bufs[0][:lens[0]]) != "first" || string(bufs[1][:lens[1]]) != "second" {
		t.Fatalf("delivered = %q, %q", bufs[0][:lens[0]], bufs[1][:lens[1]])
	}
	if free := b.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d, want 16 (failed node leaked)", free)
	}
}

// TestReplayAcrossBatchBoundary replays a message from a previous batch
// through the single-message path: lastSeq must persist across the
// boundary between RecvBatch and Recv.
func TestReplayAcrossBatchBoundary(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if sent, err := a.SendBatch(frames("x", "y")); err != nil || sent != 2 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	n1, _ := b.in.Dequeue()
	n2, _ := b.in.Dequeue()
	var raw []byte
	raw = append(raw, n1.Payload()...)
	b.in.Enqueue(n1)
	b.in.Enqueue(n2)

	bufs, lens := BatchBufs(2, 128)
	if got, err := b.RecvBatch(bufs, lens); err != nil || got != 2 {
		t.Fatalf("RecvBatch = %d, %v", got, err)
	}
	dup := b.pool.Get()
	_ = dup.SetPayload(raw)
	b.in.Enqueue(dup)
	if _, ok, err := b.Recv(make([]byte, 128)); !ok || !errors.Is(err, ErrReplay) {
		t.Fatalf("replay after batch: ok=%v err=%v, want ErrReplay", ok, err)
	}
}

func TestSendBatchPartialChannelFull(t *testing.T) {
	a, _, _ := buildPair(t, false, 2, 16, 64)
	sent, err := a.SendBatch(frames("1", "2", "3", "4"))
	if sent != 2 || !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("SendBatch = %d, %v; want 2, ErrMailboxFull", sent, err)
	}
	// Unsent nodes must be back in the pool.
	if free := a.pool.Free(); free != 16-2 {
		t.Fatalf("pool Free = %d, want 14", free)
	}
	if a.SendFailures() != 1 {
		t.Fatalf("SendFailures = %d, want 1", a.SendFailures())
	}
}

func TestSendBatchPoolExhausted(t *testing.T) {
	a, _, _ := buildPair(t, false, 8, 2, 64)
	sent, err := a.SendBatch(frames("1", "2", "3", "4"))
	if sent != 2 || !errors.Is(err, ErrPoolEmpty) {
		t.Fatalf("SendBatch = %d, %v; want 2, ErrPoolEmpty", sent, err)
	}
	sent, err = a.SendBatch(frames("5"))
	if sent != 0 || !errors.Is(err, ErrPoolEmpty) {
		t.Fatalf("SendBatch on empty pool = %d, %v", sent, err)
	}
}

func TestSendBatchOversizedRejected(t *testing.T) {
	a, _, _ := buildPair(t, false, 8, 16, 32)
	payloads := [][]byte{[]byte("ok"), make([]byte, 33)}
	sent, err := a.SendBatch(payloads)
	if sent != 0 || !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("SendBatch = %d, %v; want 0, ErrPayloadTooLarge", sent, err)
	}
	// Nothing taken from the pool: the batch is validated up front.
	if free := a.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d, want 16", free)
	}
}

func TestRecvBatchShortBufferCompacts(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	if sent, err := a.SendBatch(frames("tiny", "a very long message", "small")); err != nil || sent != 3 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	bufs, lens := BatchBufs(3, 8) // too small for the middle message
	got, err := b.RecvBatch(bufs, lens)
	if !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("RecvBatch err = %v, want ErrShortBuffer", err)
	}
	if got != 2 {
		t.Fatalf("RecvBatch delivered %d, want 2", got)
	}
	if string(bufs[0][:lens[0]]) != "tiny" || string(bufs[1][:lens[1]]) != "small" {
		t.Fatalf("delivered = %q, %q", bufs[0][:lens[0]], bufs[1][:lens[1]])
	}
}

func TestRecvBatchEmptyAndZeroSized(t *testing.T) {
	_, b, _ := buildPair(t, false, 8, 16, 64)
	bufs, lens := BatchBufs(4, 64)
	if got, err := b.RecvBatch(bufs, lens); got != 0 || err != nil {
		t.Fatalf("RecvBatch on empty channel = %d, %v", got, err)
	}
	if got, err := b.RecvBatch(nil, nil); got != 0 || err != nil {
		t.Fatalf("RecvBatch(nil) = %d, %v", got, err)
	}
	if sent, err := b.SendBatch(nil); sent != 0 || err != nil {
		t.Fatalf("SendBatch(nil) = %d, %v", sent, err)
	}
}

// TestScratchShrinksAfterIdle checks the retention policy: one big
// message grows the staging buffer past the soft cap; a streak of small
// messages lets it go, while continued large traffic would keep it.
func TestScratchShrinksAfterIdle(t *testing.T) {
	a, b, _ := buildPair(t, true, 4, 8, 8192)
	big := make([]byte, scratchSoftCap+1024)
	buf := make([]byte, 8192)
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Recv(buf); !ok || err != nil {
		t.Fatalf("big Recv: ok=%v err=%v", ok, err)
	}
	if cap(b.scratch) <= scratchSoftCap {
		t.Fatalf("scratch cap = %d after big message, want > %d", cap(b.scratch), scratchSoftCap)
	}
	for i := 0; i < scratchShrinkAfter; i++ {
		if err := a.Send([]byte("small")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Recv(buf); !ok || err != nil {
			t.Fatalf("small Recv %d: ok=%v err=%v", i, ok, err)
		}
	}
	if b.scratch != nil {
		t.Fatalf("scratch not released after %d small uses (cap %d)", scratchShrinkAfter, cap(b.scratch))
	}
	// The endpoint still works after the shrink.
	if err := a.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := b.Recv(buf); !ok || err != nil || string(buf[:n]) != "after" {
		t.Fatalf("Recv after shrink = %q ok=%v err=%v", buf[:n], ok, err)
	}
}

// TestScratchKeptUnderLargeTraffic: a streak of large messages must not
// trigger the shrink (no reallocation churn on steady big traffic).
func TestScratchKeptUnderLargeTraffic(t *testing.T) {
	a, b, _ := buildPair(t, true, 4, 8, 8192)
	big := make([]byte, scratchSoftCap+1024)
	buf := make([]byte, 8192)
	for i := 0; i < scratchShrinkAfter+8; i++ {
		if err := a.Send(big); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Recv(buf); !ok || err != nil {
			t.Fatalf("Recv %d: ok=%v err=%v", i, ok, err)
		}
	}
	if cap(b.scratch) <= scratchSoftCap {
		t.Fatalf("scratch shrunk under steady large traffic (cap %d)", cap(b.scratch))
	}
}

func TestSelfRecvBatchHonoursDrainBudget(t *testing.T) {
	a, b, rt := buildPair(t, false, 16, 32, 64)
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	self := rt.actors["b"].self
	self.drainLeft = 4 // what the worker sets per invocation
	bufs, lens := BatchBufs(8, 64)
	ep := b
	n, err := self.RecvBatch(ep, bufs, lens)
	if err != nil || n != 4 {
		t.Fatalf("budgeted RecvBatch = %d, %v; want 4", n, err)
	}
	if self.DrainBudget() != 0 {
		t.Fatalf("DrainBudget after drain = %d, want 0", self.DrainBudget())
	}
	// Budget exhausted: nothing more this invocation.
	if n, err := self.RecvBatch(ep, bufs, lens); n != 0 || err != nil {
		t.Fatalf("RecvBatch past budget = %d, %v; want 0", n, err)
	}
	// Next invocation (budget reset) picks up the backlog.
	self.drainLeft = 8
	if n, err := self.RecvBatch(ep, bufs, lens); n != 6 || err != nil {
		t.Fatalf("next-invocation RecvBatch = %d, %v; want 6", n, err)
	}
	if !self.progressed {
		t.Fatal("RecvBatch did not record progress")
	}
}

func TestBatchBufs(t *testing.T) {
	bufs, lens := BatchBufs(4, 32)
	if len(bufs) != 4 || len(lens) != 4 {
		t.Fatalf("BatchBufs sizes: %d bufs, %d lens", len(bufs), len(lens))
	}
	for i, b := range bufs {
		if len(b) != 32 {
			t.Fatalf("buf %d len = %d, want 32", i, len(b))
		}
		for j := range b {
			b[j] = byte(i + 1)
		}
	}
	for i, b := range bufs {
		for _, v := range b {
			if v != byte(i+1) {
				t.Fatalf("buf %d overlaps another buffer", i)
			}
		}
	}
	// Buffers must not grow into each other via append.
	grown := append(bufs[0], 0xFF)
	_ = grown
	if bufs[1][0] == 0xFF {
		t.Fatal("append to buf 0 overwrote buf 1 (missing capacity cap)")
	}
}

// stagePair builds a plaintext channel of the given mailbox capacity
// between two idle actors, with inj armed on the runtime (nil for none).
func stagePair(t *testing.T, capacity int, inj *faults.Injector) (a, b *Endpoint) {
	t.Helper()
	cfg := Config{
		Workers:     []WorkerSpec{{}},
		NodePayload: 64,
		Faults:      inj,
		Actors: []Spec{
			{Name: "a", Body: func(*Self) {}},
			{Name: "b", Body: func(*Self) {}},
		},
		Channels: []ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: capacity, Plaintext: true}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt.actors["a"].endpoints["link"], rt.actors["b"].endpoints["link"]
}

// pushSeq stages the frame "f<i>".
func pushSeq(s *SendStage, i int) bool {
	return s.Push(fmt.Appendf(s.Slot(), "f%d", i))
}

// expectSeq drains up to max frames from b, checking each is "f<*next>".
func expectSeq(t *testing.T, b *Endpoint, bufs [][]byte, lens []int, next *int, max int) {
	t.Helper()
	n, err := b.RecvBatch(bufs[:max], lens[:max])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := string(bufs[i][:lens[i]]), fmt.Sprintf("f%d", *next); got != want {
			t.Fatalf("received %q, want %q: FIFO order broken", got, want)
		}
		*next++
	}
}

// TestSendStageReuse drives a stage through rounds of pushes and
// flushes: every frame arrives exactly once and in push order, whatever
// a full mailbox or an injected SendFail refused on the way, and the
// refused frames wait in the stage's own slots, which grow only to the
// peak backlog.
func TestSendStageReuse(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int     // mailbox capacity
		drain    int     // frames the consumer takes per round
		sendFail float64 // SendFail rate at SiteSend
	}{
		{name: "roomy", capacity: 16, drain: 16},
		{name: "full_mailbox", capacity: 4, drain: 3},
		{name: "send_fail", capacity: 16, drain: 16, sendFail: 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inj *faults.Injector
			if tc.sendFail > 0 {
				inj = faults.New(faults.Config{Seed: 1, Rules: []faults.Rule{
					{Site: faults.SiteSend, Class: faults.SendFail, Rate: tc.sendFail},
				}})
			}
			a, b := stagePair(t, tc.capacity, inj)
			bufs, lens := BatchBufs(16, 64)
			var s SendStage
			const rounds, perRound = 20, 5
			pushed, next, peak, refused := 0, 0, 0, 0
			for round := 0; round < rounds || s.Len() > 0; round++ {
				if round > 10*rounds {
					t.Fatalf("%d frames still staged after %d rounds", s.Len(), round)
				}
				for i := 0; i < perRound && round < rounds; i++ {
					pushSeq(&s, pushed)
					pushed++
				}
				peak = max(peak, s.Len())
				before := s.Len()
				sent, err := s.Flush(a)
				if sent < before && err == nil {
					t.Fatalf("Flush sent %d of %d without an error", sent, before)
				}
				if sent < before {
					refused++
				}
				if s.Len() != before-sent {
					t.Fatalf("Len after Flush = %d, want %d", s.Len(), before-sent)
				}
				expectSeq(t, b, bufs, lens, &next, tc.drain)
			}
			expectSeq(t, b, bufs, lens, &next, 16)
			if next != pushed {
				t.Fatalf("received %d of %d frames", next, pushed)
			}
			if len(s.slots) != peak {
				t.Fatalf("%d slots for a peak of %d staged frames: slots not reused", len(s.slots), peak)
			}
			if tc.name != "roomy" && refused == 0 {
				t.Fatal("no Flush was refused: the case exercised no backpressure")
			}
		})
	}
}

// TestSendStageBound: a stage holds at most maxStaged frames and
// refuses the rest without growing; the frames it took still go out
// complete and in order.
func TestSendStageBound(t *testing.T) {
	a, b := stagePair(t, 64, nil)
	var s SendStage
	for i := 0; i < maxStaged+100; i++ {
		if took := pushSeq(&s, i); took != (i < maxStaged) {
			t.Fatalf("Push of frame %d took=%v with %d staged", i, took, s.Len())
		}
	}
	if s.Len() != maxStaged || len(s.slots) != maxStaged+1 {
		t.Fatalf("Len = %d, slots = %d; want %d and %d", s.Len(), len(s.slots), maxStaged, maxStaged+1)
	}
	bufs, lens := BatchBufs(64, 64)
	next := 0
	for rounds := 0; s.Len() > 0; rounds++ {
		if rounds > 2*maxStaged/64 {
			t.Fatalf("%d frames still staged", s.Len())
		}
		_, _ = s.Flush(a)
		expectSeq(t, b, bufs, lens, &next, 64)
	}
	if next != maxStaged {
		t.Fatalf("received %d frames, want %d", next, maxStaged)
	}
}

// TestSendStageDropsOversized: a frame the channel can never carry is
// dropped by the Flush that meets it instead of wedging the frames
// staged around it.
func TestSendStageDropsOversized(t *testing.T) {
	a, b := stagePair(t, 16, nil)
	var s SendStage
	pushSeq(&s, 0)
	s.Push(append(s.Slot(), make([]byte, a.MaxPayload()+1)...))
	pushSeq(&s, 1)
	if _, err := s.Flush(a); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Flush err = %v, want ErrPayloadTooLarge", err)
	}
	if sent, err := s.Flush(a); sent != 2 || err != nil {
		t.Fatalf("Flush = %d, %v; want 2, nil", sent, err)
	}
	bufs, lens := BatchBufs(4, 64)
	next := 0
	expectSeq(t, b, bufs, lens, &next, 4)
	if next != 2 {
		t.Fatalf("received %d frames, want 2", next)
	}
}

// TestActorFailureRace is the regression test for the failure-recording
// race: the panic text is written before the failed flag is released, so
// a concurrent ActorFailure reader never observes a torn or empty
// string. Run under -race this fails on the old ordering.
func TestActorFailureRace(t *testing.T) {
	const panicText = "a reasonably long panic message that must arrive complete"
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{Name: "crashy", Worker: 0, Body: func(*Self) { panic(panicText) }},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Pointer[string]
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if msg, ok := rt.ActorFailure("crashy"); ok {
				got.Store(&msg)
				return
			}
		}
	}()
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	<-done
	msg := got.Load()
	if msg == nil {
		t.Fatal("actor never reported as failed")
	}
	if *msg != panicText {
		t.Fatalf("ActorFailure = %q, want %q (torn read)", *msg, panicText)
	}
}
