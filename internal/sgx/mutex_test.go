package sgx

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMutexCrossingAccounting pins down the transition charges of every
// Mutex path: in-enclave Lock/Unlock without a blocked waiter pays zero
// crossings, an actually-blocked waiter pays exactly one EEXIT/EENTER
// pair, and an unlocker that signals a real sleeper pays exactly one
// pair for the set_untrusted_event OCall.
func TestMutexCrossingAccounting(t *testing.T) {
	p := NewPlatform(WithCostModel(ZeroCostModel()))
	e, err := p.CreateEnclave("locker", 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	m := NewMutex(p)

	ctx := NewContext(p)
	if err := ctx.Enter(e); err != nil {
		t.Fatalf("Enter: %v", err)
	}

	// Uncontended in-enclave acquire and release: no transitions.
	base := ctx.Crossings()
	m.Lock(ctx)
	m.Unlock(ctx)
	if got := ctx.Crossings() - base; got != 0 {
		t.Fatalf("uncontended in-enclave Lock/Unlock paid %d crossings, want 0", got)
	}

	// Contended: the holder keeps the lock until the contender has
	// committed to sleeping, so the contender must take the
	// untrusted-event path exactly once.
	m.Lock(ctx)
	var contenderCrossings uint64
	acquired := make(chan struct{})
	go func() {
		defer close(acquired)
		c2 := NewContext(p)
		if err := c2.Enter(e); err != nil {
			t.Errorf("contender Enter: %v", err)
			return
		}
		pre := c2.Crossings()
		m.Lock(c2)
		contenderCrossings = c2.Crossings() - pre
		m.Unlock(c2) // nobody sleeping: must stay free of crossings
		contenderCrossings = c2.Crossings() - pre
	}()
	for m.sleepers.Load() == 0 {
		runtime.Gosched()
	}
	preUnlock := ctx.Crossings()
	m.Unlock(ctx)
	unlockCrossings := ctx.Crossings() - preUnlock
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("contender never acquired the lock")
	}

	if contenderCrossings != 2 {
		t.Fatalf("blocked contender paid %d crossings, want exactly 2 (EEXIT+EENTER)", contenderCrossings)
	}
	if unlockCrossings != 2 {
		t.Fatalf("signalling Unlock paid %d crossings, want exactly 2 (OCall pair)", unlockCrossings)
	}
	if s := p.Snapshot(); s.MutexSleeps != 1 {
		t.Fatalf("MutexSleeps = %d, want 1", s.MutexSleeps)
	}
}

// TestMutexNoLostWakeup hammers the window between a waiter's predicate
// check and its sleeper registration. Unlock must make its sleeper
// check under the event lock: a lock-free read can observe zero after
// the waiter has committed to blocking but before it registered,
// return without signalling, and leave the waiter asleep on a free
// mutex. Two threads ping-ponging the lock hit that window within a
// few thousand iterations; a lost wakeup shows up as one side wedging
// after the other finishes.
func TestMutexNoLostWakeup(t *testing.T) {
	p := NewPlatform(WithCostModel(ZeroCostModel()))
	m := NewMutex(p)
	const iters = 20000
	hammer := func(done chan<- struct{}) {
		for i := 0; i < iters; i++ {
			m.Lock(nil)
			m.Unlock(nil)
		}
		done <- struct{}{}
	}
	d1, d2 := make(chan struct{}), make(chan struct{})
	go hammer(d1)
	go hammer(d2)
	for _, d := range []chan struct{}{d1, d2} {
		select {
		case <-d:
		case <-time.After(30 * time.Second):
			t.Fatal("lock ping-pong wedged: lost wakeup")
		}
	}
}

// TestEventWaitNearMiss asserts the property the mutex fix relies on: a
// waiter whose predicate is already false never blocks, so the caller
// charges no transition pair.
func TestEventWaitNearMiss(t *testing.T) {
	ev := NewEvent()
	if waited := ev.Wait(func() bool { return false }, nil); waited {
		t.Fatal("Wait blocked although the predicate was already false")
	}
	// And a real wait reports that it blocked.
	var flag atomic.Int32
	flag.Store(1)
	done := make(chan bool)
	committed := make(chan struct{})
	go func() {
		done <- ev.Wait(func() bool { return flag.Load() != 0 }, func() { close(committed) })
	}()
	<-committed
	flag.Store(0)
	ev.SignalIf(func() bool { return true })
	if waited := <-done; !waited {
		t.Fatal("Wait returned without blocking despite a true predicate")
	}
}
