// Package trace provides sampled causal tracing for the EActors
// runtime: a 16-byte trace context follows a message through actors,
// enclaves and the wire, and every hop records spans (send, mailbox
// dwell, seal/open, enclave crossing, body invoke, socket I/O, POS
// access) into preallocated per-worker ring buffers.
//
// The design constraints mirror the telemetry instruments' (Section
// 2.2's scarce-EPC argument applies to instrumentation too):
//
//   - Zero allocation on the message path. Span slots are preallocated
//     atomics; the context rides in the reserved trace header of
//     mem.Node and, across encrypted channels, inside the sealed frame
//     itself — so cross-enclave hops stay causally linked even though
//     the adversary controls the untrusted memory the nodes live in.
//   - Sampling. Traces are rooted 1-in-N (Config.TraceSampleEvery) at
//     ingress points; unsampled messages pay one atomic load and one
//     predictable branch per hop.
//   - Tear tolerance. Recording claims a slot with one atomic index
//     bump and stores each field with an atomic word store. A writer
//     lapping a concurrent Snapshot can tear an individual slot
//     (fields from two spans); consumers tolerate this by construction
//     — a torn span either fails the trace-ID grouping or shows as an
//     implausible outlier, never as a crash.
//   - Nil receivers are no-ops, so instrumentation sites need no
//     configuration branches of their own.
package trace

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// HeaderSize is the encoded size of a trace context: trace ID (8),
// parent span (4), magic/version (4). On encrypted channels this
// trailer is appended to the plaintext before sealing, so it is
// authenticated along with the payload.
const HeaderSize = 16

// headerMagic marks a well-formed trace header; the low byte is the
// layout version. A header whose magic does not match decodes as
// untraced — never as an error, and never as a panic.
const headerMagic uint32 = 0x7EAC5A00 | headerVersion

const headerVersion = 1

// Ctx is a trace context: the identity a message carries from hop to
// hop. TraceID zero means untraced; Span is the parent span for
// anything recorded downstream.
type Ctx struct {
	TraceID uint64
	Span    uint32
}

// Traced reports whether the context belongs to a sampled trace.
func (c Ctx) Traced() bool { return c.TraceID != 0 }

// AppendHeader appends the encoded 16-byte header to dst. Untraced
// contexts encode too (trace ID zero with a valid magic), keeping the
// framing of armed channels deterministic: the receiver always strips
// exactly HeaderSize bytes.
func AppendHeader(dst []byte, c Ctx) []byte {
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint64(h[0:8], c.TraceID)
	binary.LittleEndian.PutUint32(h[8:12], c.Span)
	binary.LittleEndian.PutUint32(h[12:16], headerMagic)
	return append(dst, h[:]...)
}

// DecodeHeader decodes a 16-byte trace header. ok is false — and the
// context zero — when b is short or the magic does not match; malformed
// input degrades to untraced, it never panics.
func DecodeHeader(b []byte) (Ctx, bool) {
	if len(b) < HeaderSize {
		return Ctx{}, false
	}
	if binary.LittleEndian.Uint32(b[12:16]) != headerMagic {
		return Ctx{}, false
	}
	return Ctx{
		TraceID: binary.LittleEndian.Uint64(b[0:8]),
		Span:    binary.LittleEndian.Uint32(b[8:12]),
	}, true
}

// SplitTrailer splits a decrypted frame into payload and trace context.
// A well-formed trailer (armed senders always append one) is stripped;
// anything else — short frame, wrong magic — returns the input payload
// untouched with an untraced context, so a decode failure costs trace
// linkage, never data.
func SplitTrailer(plain []byte) ([]byte, Ctx) {
	if len(plain) < HeaderSize {
		return plain, Ctx{}
	}
	c, ok := DecodeHeader(plain[len(plain)-HeaderSize:])
	if !ok {
		return plain, Ctx{}
	}
	return plain[:len(plain)-HeaderSize], c
}

// Kind tags a span with the hop edge it measures.
type Kind uint8

// Span kinds, covering the runtime's message-path edges. Ref semantics
// are per kind: channel tag for Send/Dwell/Seal/Open, actor tag for
// Invoke/Crossing, socket id for NetRead/NetWrite/Route, shard for the
// POS kinds.
const (
	KindNone     Kind = iota
	KindInvoke        // body invocation that handled traced work
	KindSend          // Endpoint.Send*/SendBatch operation
	KindDwell         // mailbox dwell: enqueue to dequeue
	KindSeal          // channel payload seal
	KindOpen          // channel payload open (authenticate + decrypt)
	KindCrossing      // enclave boundary crossing (worker transition or message transit)
	KindNetRead       // READER socket drain
	KindNetWrite      // WRITER socket write
	KindPOSGet        // persistent object store get
	KindPOSSet        // persistent object store set
	KindPOSSync       // persistent object store sync/flush
	KindRoute         // application routing step (XMPP stanza, KV execute)
)

var kindNames = [...]string{
	KindNone: "none", KindInvoke: "invoke", KindSend: "send",
	KindDwell: "dwell", KindSeal: "seal", KindOpen: "open",
	KindCrossing: "crossing", KindNetRead: "net-read",
	KindNetWrite: "net-write", KindPOSGet: "pos-get",
	KindPOSSet: "pos-set", KindPOSSync: "pos-sync", KindRoute: "route",
}

// String names the span kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one recorded hop edge of a trace.
type Span struct {
	// TraceID groups spans into one causal trace; never zero in a
	// recorded span.
	TraceID uint64
	// ID is the span's identity within the tracer; Parent links it to
	// the span that caused it (zero for roots).
	ID, Parent uint32
	// Kind tags the edge; Ref is its kind-specific identity.
	Kind Kind
	Ref  uint32
	// Worker is the recording worker (-1 for the system buffer).
	Worker int32
	// Start is the wall-clock UnixNano start; Dur the duration in ns.
	Start, Dur int64
}

// Scope is an eactor's active trace context for the current body
// invocation. The owning worker clears it before each invocation;
// receives adopt the context of traced inbound messages; sends read it
// to stamp outbound ones. It is normally single-writer (the owning
// worker thread), but all fields are atomics so the test-harness
// pattern of driving an idle actor's endpoints from another goroutine
// stays race-clean.
//
// A nil *Scope is a no-op that always reads as untraced.
type Scope struct {
	traceID atomic.Uint64
	span    atomic.Uint32
}

// Adopt makes c the scope's active context (last adopter wins).
func (s *Scope) Adopt(c Ctx) {
	if s == nil {
		return
	}
	s.span.Store(c.Span)
	s.traceID.Store(c.TraceID)
}

// Active returns the current context; TraceID zero means untraced.
func (s *Scope) Active() Ctx {
	if s == nil {
		return Ctx{}
	}
	id := s.traceID.Load()
	if id == 0 {
		return Ctx{}
	}
	return Ctx{TraceID: id, Span: s.span.Load()}
}

// Clear resets the scope to untraced. The guard load keeps the common
// (untraced) case store-free.
func (s *Scope) Clear() {
	if s == nil || s.traceID.Load() == 0 {
		return
	}
	s.traceID.Store(0)
	s.span.Store(0)
}
