package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicIsolation is the compartmentalisation property (Section 2.3
// of the paper): a crashing eactor is parked; eactors on the same and
// other workers keep running.
func TestPanicIsolation(t *testing.T) {
	var siblingRuns, neighbourRuns atomic.Int64
	var crashes atomic.Int64
	cfg := Config{
		Workers: []WorkerSpec{{}, {}},
		Actors: []Spec{
			{
				Name: "crashy", Worker: 0,
				Body: func(self *Self) {
					crashes.Add(1)
					panic("injected bug")
				},
			},
			{
				Name: "sibling", Worker: 0,
				Body: func(self *Self) {
					siblingRuns.Add(1)
					self.Progress() // keep the worker hot for the test
				},
			},
			{
				Name: "neighbour", Worker: 1,
				Body: func(self *Self) {
					neighbourRuns.Add(1)
					self.Progress()
				},
			},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// The sibling shares crashy's worker: its progress past the crash
	// proves the panic was contained on that worker; the neighbour
	// proves other workers were untouched.
	deadline := time.Now().Add(10 * time.Second)
	for siblingRuns.Load() < 1000 || neighbourRuns.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("healthy actors starved: sibling=%d neighbour=%d",
				siblingRuns.Load(), neighbourRuns.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if got := crashes.Load(); got != 1 {
		t.Fatalf("crashy body ran %d times, want exactly 1 (must be parked)", got)
	}
	failed := rt.FailedActors()
	if len(failed) != 1 || failed[0] != "crashy" {
		t.Fatalf("FailedActors = %v", failed)
	}
	msg, ok := rt.ActorFailure("crashy")
	if !ok || msg != "injected bug" {
		t.Fatalf("ActorFailure = %q, %v", msg, ok)
	}
	if _, ok := rt.ActorFailure("sibling"); ok {
		t.Fatal("healthy actor reported as failed")
	}
	if _, ok := rt.ActorFailure("nobody"); ok {
		t.Fatal("unknown actor reported as failed")
	}
}

// TestPanicInEnclavedActor checks containment across trust domains: a
// compromised enclave's actor dies, its enclave-sharing peer survives.
func TestPanicInEnclavedActor(t *testing.T) {
	var survivorRuns atomic.Int64
	first := true
	cfg := Config{
		Enclaves: []EnclaveSpec{{Name: "shared"}},
		Workers:  []WorkerSpec{{}},
		Actors: []Spec{
			{
				Name: "victim", Enclave: "shared", Worker: 0,
				Body: func(self *Self) {
					if first {
						first = false
						panic("exploit")
					}
				},
			},
			{
				Name: "survivor", Enclave: "shared", Worker: 0,
				Body: func(self *Self) {
					survivorRuns.Add(1)
					self.Progress()
				},
			},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for survivorRuns.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("survivor starved after co-located panic")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicParkUnderConcurrentTraffic: an actor crashing while two
// producers on other workers hammer its mailbox parks exactly once;
// the producers degrade to ErrMailboxFull (typed, not a wedge or a
// node leak) and the rest of the deployment keeps running.
func TestPanicParkUnderConcurrentTraffic(t *testing.T) {
	var crashes, bystanderRuns atomic.Int64
	cfg := Config{
		Workers:   []WorkerSpec{{}, {}, {}},
		PoolNodes: 32,
		Channels: []ChannelSpec{
			{Name: "t1", A: "prod-1", B: "victim", Capacity: 4},
			{Name: "t2", A: "prod-2", B: "victim", Capacity: 4},
		},
		Actors: []Spec{
			{Name: "prod-1", Worker: 1, Body: func(*Self) {}},
			{Name: "prod-2", Worker: 2, Body: func(*Self) {}},
			{
				Name: "victim", Worker: 0,
				Body: func(self *Self) {
					crashes.Add(1)
					panic("died mid-traffic")
				},
			},
			{Name: "bystander", Worker: 0, Body: func(self *Self) {
				bystanderRuns.Add(1)
				self.Progress()
			}},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// Two goroutines drive the producers' endpoints concurrently with
	// the crash, as cross-worker traffic would. The main loop waits for
	// a rejected send before stopping them — against a parked 4-slot
	// mailbox one is inevitable, but only once the producers have had
	// the cycles to overfill it.
	var full atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	for i, name := range []string{"prod-1", "prod-2"} {
		ep := rt.actors[name].endpoints[[]string{"t1", "t2"}[i]]
		go func(ep *Endpoint) {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Send([]byte("spam")); err != nil {
					if !errors.Is(err, ErrMailboxFull) && !errors.Is(err, ErrPoolEmpty) {
						t.Errorf("unexpected send error: %v", err)
						return
					}
					full.Add(1)
				}
			}
		}(ep)
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(rt.FailedActors()) == 0 || bystanderRuns.Load() < 1000 || full.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("park, bystander progress or full mailbox missing: failed=%v bystander=%d full=%d",
				rt.FailedActors(), bystanderRuns.Load(), full.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	<-done

	if got := crashes.Load(); got != 1 {
		t.Fatalf("victim ran %d times, want exactly 1", got)
	}
}
