package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrWindowClosed reports a Reserve on a failed or closed session's
// window; the reservation did not happen.
var ErrWindowClosed = errors.New("transport: window closed")

// Window is the sender side of the flow-control contract: the receiver
// advertised a buffer of limit bytes in its handshake, and every
// request frame must fit inside the outstanding budget before it may be
// written. Reserve blocks until completed requests return their bytes
// (Release), so a slow receiver throttles the sender to a bounded
// in-flight byte count instead of forcing drops or unbounded queueing.
type Window struct {
	mu          sync.Mutex
	cond        *sync.Cond
	limit       int
	inFlight    int
	maxInFlight int
	err         error
}

// NewWindow builds a sender window against an advertised limit.
func NewWindow(limit int) *Window {
	w := &Window{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Reserve blocks until n bytes fit under the advertised limit, then
// claims them. A frame larger than the whole advertisement can never
// fit and errors immediately.
func (w *Window) Reserve(n int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > w.limit {
		return fmt.Errorf("transport: frame of %d bytes exceeds the peer's %d-byte window", n, w.limit)
	}
	for w.err == nil && w.inFlight+n > w.limit {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	w.inFlight += n
	if w.inFlight > w.maxInFlight {
		w.maxInFlight = w.inFlight
	}
	return nil
}

// Release returns n reserved bytes (a response arrived, or the request
// was abandoned) and wakes blocked senders.
func (w *Window) Release(n int) {
	w.mu.Lock()
	w.inFlight -= n
	if w.inFlight < 0 { // release/reserve mismatch is a caller bug
		panic("transport: window released more bytes than reserved")
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Fail poisons the window: blocked and future Reserves return err
// (ErrWindowClosed when nil).
func (w *Window) Fail(err error) {
	if err == nil {
		err = ErrWindowClosed
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Limit returns the advertised budget.
func (w *Window) Limit() int { return w.limit }

// MaxInFlight returns the high-water mark of reserved bytes — the
// flow-control tests pin sender throttling with it.
func (w *Window) MaxInFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxInFlight
}

// Verdict is Replay's ruling on an arriving opaque.
type Verdict uint8

// Admit verdicts.
const (
	// VerdictNew means the opaque has not produced a response yet:
	// execute the request and Store the response.
	VerdictNew Verdict = iota
	// VerdictReplay means the opaque already completed; re-send the
	// cached response without re-executing (exactly-once effect).
	VerdictReplay
	// VerdictReject means the opaque fell out of the replay window — a
	// client violating the window discipline or reusing ancient tags.
	// Executing it could double-apply an effect, so it is refused.
	VerdictReject
)

// Replay is the receiver half of the at-least-once contract: clients
// resend a request (same opaque) until its response arrives, so the
// receiver remembers the encoded response of the last `capacity`
// opaques and replays instead of re-executing. SET/DEL thus take effect
// exactly once, and a GET resend returns the value of its single
// original execution — never a re-read that could interleave with
// later writes. Opaques older than the window are rejected, so a tag
// reuse after wraparound can never surface a stale cached response.
//
// The cache is a ring of capacity slots indexed by opaque&(capacity-1),
// each reusing its byte buffer. Two opaques share a slot only if they
// are a multiple of capacity apart, so when an admitted opaque takes a
// slot, the previous occupant has fallen capacity or more behind the
// highest opaque, where Admit rejects it anyway: eviction by distance
// is structural. (Eviction by insertion count would be
// unsound: a lost original of an *older* opaque can execute and store
// late, and must not push a still-live newer response out and let its
// resend re-execute.)
//
// Not safe for concurrent use; each session's replay state lives with
// the single actor (or goroutine) that executes its requests.
type Replay struct {
	slots []replaySlot // len(slots) is the window: a power of two
	mask  uint32
	n     int    // slots holding a response
	max   uint32 // highest admitted opaque
	seen  bool
}

// replaySlot is one ring slot.
type replaySlot struct {
	opaque uint32
	full   bool
	resp   []byte
}

// NewReplay builds a replay window caching the last capacity responses
// (DefaultReplayWindow when capacity <= 0), with capacity rounded up to
// a power of two.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = DefaultReplayWindow
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Replay{slots: make([]replaySlot, size), mask: uint32(size - 1)}
}

// Admit rules on an arriving opaque. For VerdictReplay the cached
// response frame is returned; the caller must treat it as read-only and
// done with it before the next Store.
func (r *Replay) Admit(opaque uint32) ([]byte, Verdict) {
	if !r.seen {
		r.seen = true
		r.max = opaque
		return nil, VerdictNew
	}
	if d := int32(opaque - r.max); d > 0 {
		r.max = opaque
		return nil, VerdictNew
	} else if -d >= int32(len(r.slots)) {
		// Older than anything the cache can still vouch for: its
		// response (if it ever executed) was overwritten, so executing
		// now risks a double effect and replying risks a stale value.
		return nil, VerdictReject
	}
	if s := &r.slots[opaque&r.mask]; s.full && s.opaque == opaque {
		return s.resp, VerdictReplay
	}
	// An older opaque inside the window with no cached response: the
	// original request was lost before executing, and this is its
	// resend. Execute it — the effect has not happened yet.
	return nil, VerdictNew
}

// Store caches the encoded response for an admitted opaque, copying the
// bytes into the opaque's slot.
func (r *Replay) Store(opaque uint32, resp []byte) {
	if int32(r.max-opaque) >= int32(len(r.slots)) {
		return // outside the window: Admit rejects it, so never cache it
	}
	s := &r.slots[opaque&r.mask]
	if s.full && s.opaque == opaque {
		return // a replayed duplicate never re-stores
	}
	if !s.full {
		s.full = true
		r.n++
	}
	s.opaque = opaque
	s.resp = append(s.resp[:0], resp...)
}
