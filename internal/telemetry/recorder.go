package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// EventKind tags a flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds, covering the runtime's hot-path
// transitions. Arg semantics are per kind (latency ns, byte count,
// batch size, page count) and documented at the recording site.
const (
	EvNone         EventKind = iota
	EvEnqueue                // channel send; ID = channel tag, Arg = batch size
	EvDequeue                // channel recv; ID = channel tag, Arg = batch size
	EvInvoke                 // body invocation; ID = actor tag, Arg = latency ns
	EvCrossing               // enclave boundary crossing; ID = enclave, Arg = charged ns
	EvSeal                   // payload seal; Arg = plaintext bytes
	EvOpen                   // payload open; Arg = ciphertext bytes
	EvEvict                  // EPC page eviction; ID = enclave, Arg = pages
	EvPark                   // actor parked after a body panic; ID = actor tag
	EvIdle                   // worker entered its idle wait
	EvWake                   // worker woken by its doorbell
	EvDrainExhaust           // body consumed its whole drain budget; ID = actor tag
	EvNetRead                // pump read; ID = socket, Arg = bytes
	EvNetWrite               // socket write; ID = socket, Arg = bytes
	EvPOSGet                 // POS get; Arg = latency ns
	EvPOSSet                 // POS set; Arg = latency ns
	EvFault                  // injected fault fired; ID = site, Arg = class
)

var kindNames = [...]string{
	EvNone: "none", EvEnqueue: "enqueue", EvDequeue: "dequeue",
	EvInvoke: "invoke", EvCrossing: "crossing", EvSeal: "seal",
	EvOpen: "open", EvEvict: "epc-evict", EvPark: "park",
	EvIdle: "idle", EvWake: "wake", EvDrainExhaust: "drain-exhaust",
	EvNetRead: "net-read", EvNetWrite: "net-write",
	EvPOSGet: "pos-get", EvPOSSet: "pos-set",
	EvFault: "fault",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// TS is the wall-clock nanosecond timestamp of the event.
	TS int64
	// Kind tags the event.
	Kind EventKind
	// ID is a kind-specific identity (actor tag, channel tag, socket).
	ID uint32
	// Arg is a kind-specific value; 24 usable bits survive the packed
	// slot encoding (values are saturated, not truncated).
	Arg uint64
}

// String renders one event for a dump.
func (e Event) String() string {
	return fmt.Sprintf("%s ts=%d id=%d arg=%d", e.Kind, e.TS, e.ID, e.Arg)
}

// argBits is the Arg payload width in the packed slot word.
const argBits = 24

// Recorder is a fixed-size ring of recent events — the flight recorder.
// Recording claims a slot with one atomic index bump and stores two
// atomic words (timestamp + packed kind/id/arg), so it is cheap enough
// to leave on in production and race-clean to dump from any goroutine.
// A dump observes the last N events; a writer lapping the reader can
// tear an individual slot (timestamp from one event, data from the
// next), which a post-mortem consumer tolerates by construction.
//
// A nil *Recorder is a no-op.
type Recorder struct {
	mask uint64
	next atomic.Uint64
	ts   []atomic.Int64
	data []atomic.Uint64 // kind(8) | id(32) | arg(24)
}

// NewRecorder creates a recorder holding size events (rounded up to a
// power of two, minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{
		mask: uint64(n - 1),
		ts:   make([]atomic.Int64, n),
		data: make([]atomic.Uint64, n),
	}
}

// Record appends one event. Safe from any goroutine, though each
// recorder is normally single-writer (its worker).
func (r *Recorder) Record(kind EventKind, id uint32, arg uint64) {
	if r == nil {
		return
	}
	if arg >= 1<<argBits {
		arg = 1<<argBits - 1 // saturate: "huge" is all a dump needs to say
	}
	i := r.next.Add(1) - 1
	slot := i & r.mask
	r.ts[slot].Store(time.Now().UnixNano())
	r.data[slot].Store(uint64(kind)<<56 | uint64(id)<<argBits | arg)
}

// Len returns the number of events recorded so far (monotonic; the ring
// retains the last Cap of them).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ts)
}

// Dump returns up to max of the most recent events, oldest first. With
// max <= 0 the whole ring is returned.
func (r *Recorder) Dump(max int) []Event {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	avail := n
	if avail > uint64(len(r.ts)) {
		avail = uint64(len(r.ts))
	}
	if max > 0 && uint64(max) < avail {
		avail = uint64(max)
	}
	events := make([]Event, 0, avail)
	for i := n - avail; i < n; i++ {
		slot := i & r.mask
		d := r.data[slot].Load()
		ev := Event{
			TS:   r.ts[slot].Load(),
			Kind: EventKind(d >> 56),
			ID:   uint32(d>>argBits) & 0xFFFFFFFF,
			Arg:  d & (1<<argBits - 1),
		}
		if ev.Kind == EvNone {
			continue // slot not yet written (torn read at the ring head)
		}
		events = append(events, ev)
	}
	return events
}

// FormatDump renders events one per line, with timestamps rebased to
// the first event so a dump reads as a relative timeline.
func FormatDump(events []Event) string {
	if len(events) == 0 {
		return "(flight recorder empty)\n"
	}
	var b strings.Builder
	base := events[0].TS
	for _, e := range events {
		fmt.Fprintf(&b, "+%-12d %-13s id=%-6d arg=%d\n", e.TS-base, e.Kind, e.ID, e.Arg)
	}
	return b.String()
}
