package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultSampleEvery roots one trace per this many ingress
	// opportunities; the EXPERIMENTS.md overhead budget is measured at
	// this rate.
	DefaultSampleEvery = 64
	// DefaultBufferSpans sizes each per-worker span ring.
	DefaultBufferSpans = 4096

	minBufferSpans = 64
	// slotWords is the per-span slot layout in a buffer: traceID,
	// id<<32|parent, kind<<56|worker<<40|ref, start, dur.
	slotWords = 5
)

// buffer is one preallocated span ring, written by a single worker
// thread (or, for the system buffer, by any goroutine) and read
// concurrently by Snapshot. Claiming a slot is one atomic add; each
// field is an independent atomic word store, so a reader racing a
// writer can observe a torn slot but never an out-of-bounds access.
type buffer struct {
	next  atomic.Uint64
	mask  uint64
	words []atomic.Uint64
}

func newBuffer(spans int) *buffer {
	if spans < minBufferSpans {
		spans = minBufferSpans
	}
	size := 1
	for size < spans {
		size <<= 1
	}
	return &buffer{mask: uint64(size - 1), words: make([]atomic.Uint64, size*slotWords)}
}

func (b *buffer) record(s Span) {
	i := ((b.next.Add(1) - 1) & b.mask) * slotWords
	// Zero the trace ID first so a concurrent Snapshot skips the slot
	// while the remaining words are in flux, then publish it last.
	b.words[i].Store(0)
	b.words[i+1].Store(uint64(s.ID)<<32 | uint64(s.Parent))
	b.words[i+2].Store(uint64(s.Kind)<<56 | uint64(uint16(s.Worker))<<40 | uint64(s.Ref))
	b.words[i+3].Store(uint64(s.Start))
	b.words[i+4].Store(uint64(s.Dur))
	b.words[i].Store(s.TraceID)
}

func (b *buffer) snapshot(into []Span) []Span {
	for slot := uint64(0); slot <= b.mask; slot++ {
		i := slot * slotWords
		tid := b.words[i].Load()
		if tid == 0 {
			continue
		}
		ids := b.words[i+1].Load()
		meta := b.words[i+2].Load()
		into = append(into, Span{
			TraceID: tid,
			ID:      uint32(ids >> 32),
			Parent:  uint32(ids),
			Kind:    Kind(meta >> 56),
			Worker:  int32(int16(meta >> 40)),
			Ref:     uint32(meta),
			Start:   int64(b.words[i+3].Load()),
			Dur:     int64(b.words[i+4].Load()),
		})
	}
	return into
}

// Tracer owns the sampling state, the span-ID allocator and the
// per-worker span rings. One Tracer serves a whole runtime; a nil
// *Tracer is a valid no-op, which is how disabled builds keep the
// message path to a single pointer check.
type Tracer struct {
	sampleMask uint32
	traceSeq   atomic.Uint64
	spanSeq    atomic.Uint32
	// bufs[0..workers-1] belong to the workers; the last entry is the
	// shared system buffer for records from outside any worker.
	bufs []*buffer

	mu       sync.RWMutex
	channels map[uint32]string
	actors   map[uint32]string
}

// New builds a tracer for the given worker count. sampleEvery is
// rounded up to a power of two (default DefaultSampleEvery);
// bufferSpans sizes each per-worker ring (default DefaultBufferSpans).
func New(workers, bufferSpans, sampleEvery int) *Tracer {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	mask := uint32(1)
	for int(mask) < sampleEvery {
		mask <<= 1
	}
	if bufferSpans <= 0 {
		bufferSpans = DefaultBufferSpans
	}
	if workers < 0 {
		workers = 0
	}
	t := &Tracer{
		sampleMask: mask - 1,
		bufs:       make([]*buffer, workers+1),
		channels:   make(map[uint32]string),
		actors:     make(map[uint32]string),
	}
	for i := range t.bufs {
		t.bufs[i] = newBuffer(bufferSpans)
	}
	return t
}

// MaybeRoot decides, 1-in-SampleEvery using the caller-owned tick,
// whether this ingress event starts a sampled trace; when it does, the
// returned context carries a fresh trace ID and no parent span. tick
// is caller state (one per ingress site) so sampling needs no shared
// counter on the hot path.
func (t *Tracer) MaybeRoot(tick *uint32) (Ctx, bool) {
	if t == nil {
		return Ctx{}, false
	}
	*tick++
	if *tick&t.sampleMask != 0 {
		return Ctx{}, false
	}
	return t.NewRoot(), true
}

// NewRoot unconditionally allocates a fresh sampled trace context;
// tools and tests use it to force a trace.
func (t *Tracer) NewRoot() Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{TraceID: t.traceSeq.Add(1)}
}

// NextSpan allocates a span ID (never zero).
func (t *Tracer) NextSpan() uint32 {
	if t == nil {
		return 0
	}
	id := t.spanSeq.Add(1)
	if id == 0 { // wrapped; zero is reserved for "no parent"
		id = t.spanSeq.Add(1)
	}
	return id
}

// Record stores a span into worker's ring (the system ring when the
// worker index is out of range). Spans with a zero trace ID are
// dropped — zero marks empty slots.
func (t *Tracer) Record(worker int, s Span) {
	if t == nil || s.TraceID == 0 {
		return
	}
	b := t.bufs[len(t.bufs)-1]
	if worker >= 0 && worker < len(t.bufs)-1 {
		b = t.bufs[worker]
	} else {
		worker = -1
	}
	s.Worker = int32(worker)
	b.record(s)
}

// Begin starts timing a span for the scope's active trace; the zero
// time means "not traced" and makes the matching End a no-op. The
// armed-but-untraced cost is one atomic load.
func (t *Tracer) Begin(sc *Scope) time.Time {
	if t == nil || !sc.Active().Traced() {
		return time.Time{}
	}
	return time.Now()
}

// End records a span begun by Begin, parented to the scope's current
// context (re-read here, so a Recv between Begin and End parents the
// span correctly). No-op when start is zero or the scope has gone
// untraced.
func (t *Tracer) End(worker int, sc *Scope, kind Kind, ref uint32, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	c := sc.Active()
	if !c.Traced() {
		return
	}
	t.Record(worker, Span{
		TraceID: c.TraceID,
		ID:      t.NextSpan(),
		Parent:  c.Span,
		Kind:    kind,
		Ref:     ref,
		Start:   start.UnixNano(),
		Dur:     int64(time.Since(start)),
	})
}

// Snapshot copies every live span out of all rings. Safe to call
// concurrently with recording; torn slots (writer lapping the reader)
// surface as implausible spans in a trace group, never as corruption
// of other slots.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, b := range t.bufs {
		out = b.snapshot(out)
	}
	return out
}

// NameChannel registers a display name for a channel tag.
func (t *Tracer) NameChannel(tag uint32, name string) {
	if t == nil || name == "" {
		return
	}
	t.mu.Lock()
	t.channels[tag] = name
	t.mu.Unlock()
}

// NameActor registers a display name for an actor tag.
func (t *Tracer) NameActor(tag uint32, name string) {
	if t == nil || name == "" {
		return
	}
	t.mu.Lock()
	t.actors[tag] = name
	t.mu.Unlock()
}

// RefName resolves a span's Ref to a registered display name, or ""
// when the kind's ref space has no name table (sockets, shards).
func (t *Tracer) RefName(kind Kind, ref uint32) string {
	if t == nil {
		return ""
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	switch kind {
	case KindSend, KindDwell, KindSeal, KindOpen:
		return t.channels[ref]
	case KindInvoke:
		return t.actors[ref]
	case KindCrossing:
		// Message-transit crossings carry the channel tag, worker
		// transitions the actor tag; channel names win on a tie (the
		// tables are dense from zero, so low tags exist in both).
		if n, ok := t.channels[ref]; ok {
			return n
		}
		return t.actors[ref]
	}
	return ""
}
