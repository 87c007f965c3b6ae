package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/telemetry"
)

// TestRestartOnPanic is the headline supervision property: an actor
// whose body panics once, under an OnPanic policy, resumes within the
// backoff bound with its private state intact, and both the restart
// counter and the eactors_restarts metric reflect it.
func TestRestartOnPanic(t *testing.T) {
	var runs atomic.Int64
	const backoff = 2 * time.Millisecond
	cfg := Config{
		Telemetry: true,
		Workers:   []WorkerSpec{{}},
		Actors: []Spec{
			{
				Name: "flappy", Worker: 0,
				Restart: RestartPolicy{OnPanic: true, Backoff: backoff, MaxBackoff: backoff},
				Body: func(self *Self) {
					if runs.Add(1) == 1 {
						panic("transient bug")
					}
				},
			},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// Generous against scheduler noise, but the restart itself must be
	// ordered after the backoff elapsed.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("actor never resumed: runs=%d, supervision=%+v", runs.Load(), rt.Supervision())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if elapsed := time.Since(start); elapsed < backoff {
		t.Fatalf("actor resumed after %v, before the %v backoff", elapsed, backoff)
	}
	if got := rt.ActorRestarts("flappy"); got != 1 {
		t.Fatalf("ActorRestarts = %d, want 1", got)
	}
	if failed := rt.FailedActors(); len(failed) != 0 {
		t.Fatalf("FailedActors = %v after restart, want none", failed)
	}
	if _, ok := rt.ActorFailure("flappy"); ok {
		t.Fatal("restarted actor still reports as failed")
	}
	var metrics strings.Builder
	rt.Telemetry().WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "\neactors_restarts_total 1\n") {
		t.Fatalf("eactors_restarts_total is not 1:\n%s", metrics.String())
	}
}

// TestRestartBackoffDoublesAndExhausts: a persistently-crashing actor
// is restarted MaxRestarts times with doubling delays, then parks
// permanently.
func TestRestartBackoffDoublesAndExhausts(t *testing.T) {
	var runs atomic.Int64
	policy := RestartPolicy{
		OnPanic:     true,
		MaxRestarts: 3,
		Backoff:     time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{
				Name: "doomed", Worker: 0, Restart: policy,
				Body: func(self *Self) {
					runs.Add(1)
					panic("permanent bug")
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

	// 1 initial run + 3 restarts, then the policy is exhausted.
	deadline := time.Now().Add(5 * time.Second)
	for rt.ActorRestarts("doomed") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("restarts = %d, want 3", rt.ActorRestarts("doomed"))
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Let any further (buggy) restart fire before checking the park.
	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != 4 {
		t.Fatalf("body ran %d times, want exactly 4 (1 + MaxRestarts)", got)
	}
	sup := rt.Supervision()
	if len(sup) != 1 || !sup[0].Parked || sup[0].RestartDue {
		t.Fatalf("exhausted actor not permanently parked: %+v", sup)
	}
	if sup[0].Restarts != 3 || sup[0].Failure != "permanent bug" {
		t.Fatalf("supervision snapshot = %+v", sup[0])
	}

	// The doubling schedule (1ms, 2ms, 4ms) is covered by the policy
	// helper directly — wall-clock assertions on sub-ms sleeps flake.
	for i, want := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond} {
		if got := policy.backoff(uint64(i)); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
}

// restartMailboxDeployment runs a consumer that panics on its first
// invocation (before draining anything) and then counts every message
// it receives, with `flush` selecting the policy's mailbox fate. The
// producer endpoint is driven from the test goroutine.
func restartMailboxDeployment(t *testing.T, flush bool) (received *atomic.Int64, rt *Runtime) {
	t.Helper()
	received = new(atomic.Int64)
	var first atomic.Bool
	first.Store(true)
	buf := make([]byte, 64)
	cfg := Config{
		Workers:   []WorkerSpec{{}, {}},
		PoolNodes: 16,
		Channels:  []ChannelSpec{{Name: "work", A: "producer", B: "consumer", Capacity: 8}},
		Actors: []Spec{
			{Name: "producer", Worker: 0, Body: func(*Self) {}},
			{
				Name: "consumer", Worker: 1,
				// Parks until fillParkedMailbox frees it: the park must
				// outlast the test's polling however fast restarts are.
				Restart: RestartPolicy{OnPanic: true, Backoff: 30 * time.Second, FlushMailbox: flush},
				Body: func(self *Self) {
					if first.CompareAndSwap(true, false) {
						panic("crash before consuming")
					}
					ep := self.MustChannel("work")
					for {
						_, ok, err := ep.Recv(buf)
						if !ok || err != nil {
							return
						}
						received.Add(1)
						self.Progress()
					}
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
	t.Cleanup(rt.Stop)
	return received, rt
}

// fillParkedMailbox waits for the consumer to park, enqueues n messages
// into its mailbox, then forces the restart past the long backoff.
func fillParkedMailbox(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.FailedActors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ep := rt.actors["producer"].endpoints["work"]
	for i := 0; i < n; i++ {
		if err := ep.Send([]byte("backlog")); err != nil {
			t.Fatalf("send %d to parked consumer: %v", i, err)
		}
	}
	if err := rt.RestartActor("consumer"); err != nil {
		t.Fatal(err)
	}
}

// TestRestartMailboxPreserved: the default policy keeps the backlog —
// messages sent while the actor was parked are consumed by the
// restarted body.
func TestRestartMailboxPreserved(t *testing.T) {
	received, rt := restartMailboxDeployment(t, false)
	fillParkedMailbox(t, rt, 5)
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted consumer drained %d/5 backlog messages", received.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRestartMailboxFlushed: FlushMailbox drops the backlog at restart
// (nodes back to the pool) and the revived actor starts clean.
func TestRestartMailboxFlushed(t *testing.T) {
	received, rt := restartMailboxDeployment(t, true)
	fillParkedMailbox(t, rt, 5)
	deadline := time.Now().Add(5 * time.Second)
	for rt.ActorRestarts("consumer") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never restarted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// A fresh message must still flow (the flush returned the backlog's
	// nodes to the pool; a leak would starve this send).
	ep := rt.actors["producer"].endpoints["work"]
	for received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted consumer never received a fresh message")
		}
		if err := ep.Send([]byte("fresh")); err != nil && !errors.Is(err, ErrMailboxFull) {
			t.Fatalf("send after flush: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got >= 5 {
		t.Fatalf("flushed consumer received %d messages; the 5-message backlog leaked through", got)
	}
}

// TestRestartActorOverride drives the manual override: RestartActor
// rejects an unknown and a healthy actor, and frees a parked one at
// once, bypassing its 30s backoff; Supervision reports the park and the
// recovery.
func TestRestartActorOverride(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{Name: "healthy", Worker: 0, Body: func(*Self) {}},
			{
				Name: "crashy", Worker: 0,
				// Parks long enough to be observed; only the override
				// can free it within the test's deadline.
				Restart: RestartPolicy{OnPanic: true, Backoff: 30 * time.Second},
				Body: func(self *Self) {
					if runs.Add(1) == 1 {
						panic("observed bug")
					}
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
	for len(rt.FailedActors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crashy never parked")
		}
		time.Sleep(time.Millisecond)
	}
	sup := rt.Supervision()
	if len(sup) != 2 || sup[0].Name != "crashy" || !sup[0].Parked || !sup[0].RestartDue ||
		sup[0].Failure != "observed bug" || sup[1].Parked {
		t.Fatalf("supervision of parked crashy = %+v", sup)
	}

	if err := rt.RestartActor("nobody"); err == nil {
		t.Fatal("RestartActor accepted an unknown actor")
	}
	if err := rt.RestartActor("healthy"); err == nil {
		t.Fatal("RestartActor accepted a healthy actor")
	}
	if err := rt.RestartActor("crashy"); err != nil {
		t.Fatalf("RestartActor(crashy): %v", err)
	}
	for runs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("manual restart never revived crashy (30s backoff should be bypassed)")
		}
		time.Sleep(time.Millisecond)
	}
	if got := rt.ActorRestarts("crashy"); got != 1 {
		t.Fatalf("ActorRestarts = %d, want 1", got)
	}
	if sup := rt.Supervision(); sup[0].Parked || sup[0].Restarts != 1 {
		t.Fatalf("supervision after the override = %+v", sup[0])
	}
}

// TestFlightDumpOfRestartedActor: the flight dump captured at the
// panic, ending in the park, stays readable after the supervised
// restart revived the actor.
func TestFlightDumpOfRestartedActor(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{
		Telemetry: true,
		Workers:   []WorkerSpec{{}},
		Actors: []Spec{
			// Runs ahead of flappy on the same worker, so the dump taken
			// at the panic holds invoke events.
			{Name: "steady", Worker: 0, Body: func(*Self) {}},
			{
				Name: "flappy", Worker: 0,
				Restart: RestartPolicy{OnPanic: true, Backoff: time.Millisecond},
				Body: func(self *Self) {
					if runs.Add(1) == 1 {
						panic("dump me")
					}
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
	for runs.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("flappy never restarted")
		}
		time.Sleep(time.Millisecond)
	}
	dump := rt.ActorFlightDump("flappy")
	if len(dump) == 0 {
		t.Fatal("no flight dump of the restarted actor")
	}
	if last := dump[len(dump)-1]; last.Kind != telemetry.EvPark {
		t.Fatalf("dump ends in %v, want park:\n%s", last.Kind, telemetry.FormatDump(dump))
	}
	if text := telemetry.FormatDump(dump); !strings.Contains(text, "invoke") {
		t.Fatalf("dump of restarted actor has no invoke events:\n%s", text)
	}
}

// TestFailureReadDuringRestarts is the regression test for the
// failure-record race under supervision: a flapping actor re-parks and
// overwrites its failure text while other goroutines read it through
// ActorFailure and Supervision. Run under -race this fails when the
// text is stored as a plain string instead of an atomic pointer; the
// prefix check additionally catches torn reads without the detector.
func TestFailureReadDuringRestarts(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{
				Name: "flapper", Worker: 0,
				Restart: RestartPolicy{OnPanic: true, Backoff: time.Microsecond, MaxBackoff: time.Microsecond},
				Body: func(*Self) {
					panic(fmt.Sprintf("crash number %d with a message long enough to tear", runs.Add(1)))
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

	deadline := time.Now().Add(10 * time.Second)
	for rt.ActorRestarts("flapper") < 25 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d restarts before the deadline", rt.ActorRestarts("flapper"))
		}
		if msg, ok := rt.ActorFailure("flapper"); ok && !strings.HasPrefix(msg, "crash number ") {
			t.Fatalf("torn failure read: %q", msg)
		}
		for _, s := range rt.Supervision() {
			if s.Parked && !strings.HasPrefix(s.Failure, "crash number ") {
				t.Fatalf("torn supervision failure: %q", s.Failure)
			}
		}
	}
}

// TestForceExpiresAcrossRestart pins the generation guard on manual
// restarts: a force that raced with a concurrent worker restart (so it
// names a park the worker already revived) must not carry over to the
// actor's next park and bypass its policy.
func TestForceExpiresAcrossRestart(t *testing.T) {
	var a actorInstance

	// Park 1; RestartActor targets it.
	a.parkGen.Add(1)
	a.forceGen.Store(a.parkGen.Load())
	if !a.forcePending() {
		t.Fatal("force against the current park not pending")
	}

	// The worker restarts the actor (clearing the force), but a racing
	// RestartActor that still saw failed==true re-stores the stale
	// generation afterwards.
	a.forceGen.Store(0)
	a.forceGen.Store(1)

	// Next park is a new generation: the stale force must not fire.
	a.parkGen.Add(1)
	if a.forcePending() {
		t.Fatal("stale force survived into the next park")
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
