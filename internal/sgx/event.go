package sgx

import "sync"

// Event is the untrusted wait object backing the SDK's
// sgx_thread_wait_untrusted_event / sgx_thread_set_untrusted_event OCall
// pair. A thread that cannot make progress inside an enclave exits,
// parks on an Event, and is re-entered once another thread sets it.
//
// Mutex (the SDK barging mutex) is built on it. Event itself charges
// nothing; callers account the EEXIT/EENTER pair only when Wait reports
// that the thread actually blocked.
//
// Wakes are generation-counted so a Set that races a waiter between its
// failed predicate check and the block cannot be lost.
type Event struct {
	mu   sync.Mutex
	cond *sync.Cond
	gen  uint64 // wake generation, guarded by mu
}

// NewEvent creates an untrusted wait event.
func NewEvent() *Event {
	e := &Event{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Wait blocks while pred stays true and no wake has arrived since entry.
// pred is evaluated under the event lock, closing the race against a
// concurrent SignalIf. onFirstWait, when non-nil, runs under the lock
// immediately before the first block — callers use it to register
// themselves as sleepers exactly when they commit to sleeping. Wait
// reports whether the calling thread actually blocked; a near-miss that
// finds pred already false never sleeps and must not be charged a
// transition pair.
func (e *Event) Wait(pred func() bool, onFirstWait func()) (waited bool) {
	e.mu.Lock()
	gen := e.gen
	for e.gen == gen && pred() {
		if !waited {
			waited = true
			if onFirstWait != nil {
				onFirstWait()
			}
		}
		e.cond.Wait()
	}
	e.mu.Unlock()
	return waited
}

// SignalIf wakes one waiter only when cond holds, with cond evaluated
// under the event lock. Paired with a Wait whose onFirstWait registers
// the sleeper, the check is race-free: either cond observes the
// registration (the sleeper has committed and will consume the wake),
// or the waiter's predicate — also run under the lock — observes the
// caller's prior state change and the waiter never blocks. An unlocked
// read of the sleeper count would leave a window between the waiter's
// predicate check and its registration in which a release goes
// unsignalled — a lost wakeup. Reports whether a wake was issued.
func (e *Event) SignalIf(cond func() bool) bool {
	e.mu.Lock()
	ok := cond()
	if ok {
		e.gen++
	}
	e.mu.Unlock()
	if ok {
		e.cond.Signal()
	}
	return ok
}
