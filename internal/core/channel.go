package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/mem"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
)

// Channel-layer errors. Every send failure path returns one of these
// typed errors — callers branch with errors.Is, never on a bare bool,
// so a dropped message is always a visible decision at the call site
// (cmd/sendcheck enforces this in CI).
var (
	// ErrMailboxFull reports a full mbox; the sender should retry on a
	// later body invocation (a SendStage keeps the frames until then).
	ErrMailboxFull = errors.New("core: channel mbox full")

	// ErrPoolEmpty reports that no free node was available.
	ErrPoolEmpty = errors.New("core: node pool exhausted")

	// ErrPayloadTooLarge reports a payload exceeding the node capacity
	// (minus encryption overhead on encrypted channels).
	ErrPayloadTooLarge = errors.New("core: payload exceeds node capacity")

	// ErrShortBuffer reports a Recv buffer smaller than the message.
	ErrShortBuffer = errors.New("core: receive buffer too small")

	// ErrReplay reports a message whose sequence counter is not strictly
	// monotonic: the paper's adversary controls the untrusted runtime
	// and can replay or reorder nodes, so encrypted endpoints enforce
	// the sender's counter ordering.
	ErrReplay = errors.New("core: replayed or reordered encrypted message")
)

// Channel is a bidirectional link between two eactors, built from two
// FIFO mboxes over the shared node pool. When its endpoints live in
// different enclaves and the channel is not configured plaintext, both
// directions are transparently AES-GCM-sealed with a key agreed through
// simulated SGX local attestation — the paper's uniform communication
// primitive (Section 3.3): eactor code is identical whether its peer is
// co-located, in another enclave, or untrusted.
type Channel struct {
	name      string
	a, b      string // endpoint actor names
	encrypted bool
	tag       uint32 // dense id for trace spans and dwell attribution
	ab, ba    *mem.Mbox
	epA, epB  *Endpoint
}

// ChannelStats aggregates a channel's traffic counters.
type ChannelStats struct {
	// AToB / BToA count delivered messages per direction.
	AToB, BToA uint64
	// SendFailures counts sends rejected by a full mbox or empty pool
	// (both directions).
	SendFailures uint64
	// Pending counts currently queued messages (both directions).
	Pending int
}

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() ChannelStats {
	return ChannelStats{
		AToB:         c.epA.sent.Load(),
		BToA:         c.epB.sent.Load(),
		SendFailures: c.epA.sendFailures.Load() + c.epB.sendFailures.Load(),
		Pending:      c.ab.Len() + c.ba.Len(),
	}
}

// Name returns the configured channel name.
func (c *Channel) Name() string { return c.name }

// Encrypted reports whether payloads are sealed in transit.
func (c *Channel) Encrypted() bool { return c.encrypted }

// Scratch-buffer retention policy: an endpoint that once carried a
// node-sized message would otherwise pin that much staging memory
// forever (per endpoint — with thousands of channels that adds up,
// and inside an enclave it is EPC-accounted). A buffer larger than
// scratchSoftCap is released after scratchShrinkAfter consecutive
// uses that stayed under the cap; a streak of large messages keeps
// the buffer, so steady large traffic never reallocates.
const (
	scratchSoftCap     = 4096
	scratchShrinkAfter = 32
)

// Endpoint is one eactor's end of a channel. Endpoints are owned by
// their eactor and must only be used from its body/constructor.
type Endpoint struct {
	ch       *Channel
	out, in  *mem.Mbox
	pool     *mem.Pool
	cipher   *ecrypto.Cipher // nil on plaintext channels
	scratch  []byte          // staging buffer for opened plaintext
	peerWake func()          // rings the consumer worker's doorbell

	batch       []*mem.Node // node staging shared by every send and receive
	scratchIdle int         // consecutive small scratch uses (see noteScratchUse)

	// The four cross-cutting concerns below belong to the hop observer
	// (further down); Send*/Recv* never touch them.

	// inj is the runtime's fault injector (Config.Faults); nil in production.
	inj *faults.Injector

	// tick is the owner-thread-local sampling counter telemetry and cost
	// accounting share (see hop.sample).
	tick uint32

	// Telemetry (all nil unless Config.Telemetry): sendNs is the
	// per-channel sampled latency histogram.
	m      *metrics
	sendNs *telemetry.Histogram

	// Tracing (all nil/zero unless Config.Trace): tr is the runtime's
	// causal tracer, scope the owning actor's trace scope and owner its
	// worker index for span attribution. Sends stamp the scope's active
	// context onto outbound nodes (and, on encrypted channels, into a
	// sealed trailer); receives adopt inbound contexts and record
	// dwell/crossing/open spans. Untraced operations on an armed
	// endpoint cost one atomic scope load.
	tr    *trace.Tracer
	scope *trace.Scope
	owner int

	// Cost accounting (all nil unless Config.Profile): pc is the owning
	// actor's cost cell and pcEdge this direction's communication-matrix
	// edge, which counts bytes; its message count is sent below.
	// Counters are exact; clock reads are taken on the sampling tick and
	// extrapolated.
	pc     *profile.ActorCell
	pcEdge *profile.EdgeCell

	sent         atomic.Uint64
	received     atomic.Uint64
	sendFailures atomic.Uint64

	// lastSeq is the highest sender counter accepted on this (encrypted)
	// endpoint; non-monotonic counters are rejected as replays.
	lastSeq uint64
}

// Sent returns the number of messages this endpoint enqueued.
func (e *Endpoint) Sent() uint64 { return e.sent.Load() }

// Received returns the number of messages this endpoint dequeued.
func (e *Endpoint) Received() uint64 { return e.received.Load() }

// SendFailures returns how many sends hit a full mbox or empty pool.
func (e *Endpoint) SendFailures() uint64 { return e.sendFailures.Load() }

// Channel returns the owning channel.
func (e *Endpoint) Channel() *Channel { return e.ch }

// traces reports whether the runtime traces (Config.Trace). Outbound
// nodes are then stamped, and every sealed frame ends in the 16-byte
// trace context — traced or not, so framing stays deterministic and the
// context is authenticated.
func (e *Endpoint) traces() bool { return e.tr != nil }

// overhead returns the bytes a sealed frame adds to its payload (zero on
// plaintext channels).
func (e *Endpoint) overhead() int {
	if e.cipher == nil {
		return 0
	}
	if e.traces() {
		return ecrypto.Overhead + trace.HeaderSize
	}
	return ecrypto.Overhead
}

// MaxPayload returns the largest payload Send accepts: the node
// capacity minus, on encrypted channels, the sealed-frame overhead.
func (e *Endpoint) MaxPayload() int {
	return e.pool.Arena().PayloadSize() - e.overhead()
}

// hop observes one channel operation for the cross-cutting concerns:
// telemetry (e.m), tracing (e.tr), cost accounting (e.pc) and fault
// injection (e.inj). It decides once, when the operation begins, which
// sinks sample it, reads the clock at most once per edge (operation
// start, seal/open start, seal/open end, operation end) and fans each
// edge out to the sinks that asked. Send*/Recv* call its methods and
// never touch a sink themselves, so a further sink changes this type
// only. With every sink off each method is a few nil checks.
type hop struct {
	e      *Endpoint
	batch  bool      // SendBatch/RecvBatch: burst sizes are observed
	mute   bool      // injected DoorbellDrop: the peer is not woken
	tel    bool      // telemetry samples this operation (1 in 16)
	pcNs   bool      // cost accounting times this seal/open pass (1 in 16)
	ctx    trace.Ctx // send: stamped on outbound nodes; recv: adopted
	parent uint32    // send: the scope span the send span hangs off
	enq    int64     // send: stamped enqueue time; recv: the adopted node's
	start  time.Time // send: operation start, when tel or traced
	edge   time.Time // seal/open start, when any sink times this pass

	// What moved. Send: plaintext bytes about to be enqueued. Receive:
	// messages dequeued, and what open made of them.
	bytes, msgs, opened, openBytes int
}

// sampleMask is the period of the endpoint's sampling tick, less one.
const sampleMask = profile.SampleEvery - 1

// sample decides, once per operation, which sinks pay for clock reads.
// One tick serves both timed sinks: the first operation of every 16 is
// timed for telemetry and, on an encrypted channel, its seal/open pass
// for cost accounting, which scales the duration by the period. The
// tick is owner-local, so sampling needs no synchronisation, and the
// skipped operations avoid the clock reads that would dominate the fast
// path's instrumentation.
func (h *hop) sample() {
	e := h.e
	if e.m == nil && e.pc == nil {
		return
	}
	sampled := e.tick&sampleMask == 0
	e.tick++
	h.tel = sampled && e.m != nil
	h.pcNs = sampled && e.pc != nil && e.cipher != nil
}

// passStart reads the clock ahead of a seal or open pass when any sink
// times it; traced is the caller's knowledge that the pass belongs to a
// sampled trace.
func (h *hop) passStart(traced bool) {
	if h.tel || h.pcNs || traced {
		h.edge = time.Now()
	}
}

// span records one span of the hop's trace on the owning worker's ring.
func (h *hop) span(kind trace.Kind, id, parent uint32, start, dur int64) {
	e := h.e
	e.tr.Record(e.owner, trace.Span{
		TraceID: h.ctx.TraceID, ID: id, Parent: parent,
		Kind: kind, Ref: e.ch.tag, Start: start, Dur: dur,
	})
}

// beginSend opens the observation of a send. The fault schedule comes
// first, one slot per operation (a batch included): SendFail rejects the
// send as an organic full-mailbox failure (false, the failure already
// counted), Delay stalls it, DoorbellDrop is remembered for sent. A
// traced send allocates its span here: ctx is what outbound nodes are
// stamped with, and the receive side parents its spans to it. Armed but
// untraced costs one atomic load.
func (h *hop) beginSend() bool {
	e := h.e
	if e.inj != nil {
		switch act := e.inj.At(faults.SiteSend); act.Class {
		case faults.SendFail:
			e.sendFailures.Add(1)
			return false
		case faults.Delay:
			time.Sleep(act.Delay)
		case faults.DoorbellDrop:
			h.mute = true
		}
	}
	h.sample()
	if e.tr != nil {
		if c := e.scope.Active(); c.Traced() {
			h.ctx = trace.Ctx{TraceID: c.TraceID, Span: e.tr.NextSpan()}
			h.parent = c.Span
		}
	}
	if h.tel || h.ctx.Traced() {
		h.start = time.Now()
	}
	return true
}

// corruptSeal reports whether the channel-seal schedule corrupts the
// payload just sealed (it shares SiteSeal with sgx.Enclave.Seal so one
// schedule covers both seal layers).
func (h *hop) corruptSeal() bool {
	inj := h.e.inj
	return inj != nil && inj.At(faults.SiteSeal).Class == faults.SealCorrupt
}

// sealed closes the seal pass over nodes, which now hold sealed frames.
// Seal counts are exact; the duration reaches the sinks that sampled it,
// per payload for telemetry and extrapolated for cost accounting.
func (h *hop) sealed(nodes []*mem.Node) {
	e := h.e
	if e.pc != nil {
		e.pc.SealOps.Add(uint64(len(nodes)))
		e.pc.SealBytes.Add(uint64(e.plainBytes(nodes)))
	}
	if h.edge.IsZero() {
		return
	}
	now := time.Now()
	dur := now.Sub(h.edge)
	if h.tel {
		e.m.sealNs.Observe(uint64(dur) / uint64(len(nodes)))
	}
	if h.pcNs {
		e.pc.SealNs.Add(uint64(dur) * profile.SampleEvery)
	}
	if h.ctx.Traced() {
		h.span(trace.KindSeal, e.tr.NextSpan(), h.ctx.Span, h.edge.UnixNano(), int64(dur))
		h.enq = now.UnixNano()
	}
}

// outbound sees nodes off before the enqueue hands them over: it weighs
// them for cost accounting (once enqueued they are the receiver's to
// recycle) and writes their trace headers; a burst shares the send span
// and one enqueue time. Untraced nodes are explicitly cleared: a recycled
// node's stale header from a traced message must not resurrect.
func (h *hop) outbound(nodes []*mem.Node) {
	e := h.e
	if e.pc != nil {
		h.bytes = e.plainBytes(nodes)
	}
	if e.tr == nil {
		return
	}
	if !h.ctx.Traced() {
		for _, node := range nodes {
			node.ClearTrace()
		}
		return
	}
	if h.enq == 0 {
		h.enq = time.Now().UnixNano()
	}
	for _, node := range nodes {
		node.SetTrace(h.ctx.TraceID, h.ctx.Span, h.enq)
	}
}

// sent closes a send that enqueued msgs nodes and left kept with the
// caller: the bytes are charged to this direction's edge (its message
// count is the endpoint's sent counter), a sampled operation pays for
// the latency observation, a traced send records its span (a burst
// shares one), and the consumer's doorbell is rung — unless the fault
// schedule dropped it, which the worker's idle-sleep poll recovers,
// trading latency for liveness.
func (h *hop) sent(msgs int, kept []*mem.Node) {
	e := h.e
	if e.pc != nil {
		e.pcEdge.Bytes.Add(uint64(h.bytes - e.plainBytes(kept)))
	}
	if h.batch && e.m != nil {
		e.m.sendBatch.Observe(uint64(msgs))
	}
	if !h.start.IsZero() {
		dur := time.Since(h.start)
		if h.tel {
			e.sendNs.Observe(uint64(dur))
		}
		if h.ctx.Traced() {
			h.span(trace.KindSend, h.ctx.Span, h.parent, h.start.UnixNano(), int64(dur))
		}
	}
	if !h.mute && e.peerWake != nil {
		e.peerWake()
	}
}

// beginRecv opens the observation of a receive that dequeued nodes
// (polls on an empty mailbox never get here, so they consume no fault
// schedule slot and no sampling tick). The nodes' untrusted headers say
// whether the burst carries a sampled message: a plaintext channel
// adopts it at once, an encrypted one takes it as the hint that lets
// armed-but-untraced receives skip the open pass's clock reads.
func (h *hop) beginRecv(nodes []*mem.Node) {
	e := h.e
	h.msgs = len(nodes)
	if e.inj != nil {
		if act := e.inj.At(faults.SiteRecv); act.Class == faults.Delay {
			time.Sleep(act.Delay)
		}
	}
	h.sample()
	if h.batch && e.m != nil {
		e.m.recvBatch.Observe(uint64(len(nodes)))
	}
	var hdr trace.Ctx // the burst's most recent traced header
	var enq int64
	if e.tr != nil {
		for _, node := range nodes {
			if tid, span, at := node.Trace(); tid != 0 {
				hdr, enq = trace.Ctx{TraceID: tid, Span: span}, at
			}
		}
	}
	if e.cipher != nil {
		h.passStart(hdr.Traced()) // what to adopt, the sealed trailers decide
	} else if hdr.Traced() {
		h.ctx, h.enq = hdr, enq
		h.adopt(time.Now())
	}
}

// openedPass closes the open pass of a receive on an encrypted channel:
// exact open counts, the duration to the sinks that sampled it, and the
// adoption of a traced message.
func (h *hop) openedPass() {
	e := h.e
	if e.pc != nil {
		e.pc.OpenOps.Add(uint64(h.opened))
		e.pc.OpenBytes.Add(uint64(h.openBytes))
	}
	traced := h.ctx.Traced()
	if h.edge.IsZero() && !traced {
		return
	}
	now := time.Now()
	if !h.edge.IsZero() {
		dur := uint64(now.Sub(h.edge))
		if h.tel {
			e.m.openNs.Observe(dur / uint64(h.msgs))
		}
		if h.pcNs {
			e.pc.OpenNs.Add(dur * profile.SampleEvery)
		}
	}
	if traced {
		h.adopt(now)
	}
}

// adopt makes a traced inbound message the invocation's context and
// records its transit up to now: on plaintext channels the mailbox dwell
// (enqueue to dequeue); on encrypted ones a crossing span over the whole
// transit (enqueue to open complete) with the dwell and the open as
// children. The crossing belongs to the message, not the worker: a
// worker whose eactors share one enclave never re-crosses (the paper's
// central optimisation), so the boundary the message paid is the one
// worth seeing. The enqueue time is from the node's untrusted header: it
// bounds measurement, never causality. A burst is described by its most
// recent traced message — exact for one sampled message, an
// approximation bounded by the burst for saturated pipelines.
func (h *hop) adopt(now time.Time) {
	e := h.e
	sealedPass := e.cipher != nil
	nowNS, parent := now.UnixNano(), h.ctx.Span
	if sealedPass {
		parent = e.tr.NextSpan()
	}
	if h.enq > 0 && h.enq <= nowNS {
		dwellEnd := nowNS
		if sealedPass {
			h.span(trace.KindCrossing, parent, h.ctx.Span, h.enq, nowNS-h.enq)
			if !h.edge.IsZero() {
				dwellEnd = h.edge.UnixNano()
			}
		}
		if dwellEnd >= h.enq {
			h.span(trace.KindDwell, e.tr.NextSpan(), parent, h.enq, dwellEnd-h.enq)
		}
	}
	if sealedPass && !h.edge.IsZero() {
		h.span(trace.KindOpen, e.tr.NextSpan(), parent, h.edge.UnixNano(), int64(now.Sub(h.edge)))
	}
	e.scope.Adopt(h.ctx)
}

// delivered charges the messages handed to the application to the
// owning actor.
func (h *hop) delivered(msgs, bytes int) {
	if pc := h.e.pc; pc != nil && msgs > 0 {
		pc.MsgsRecv.Add(uint64(msgs))
		pc.BytesRecv.Add(uint64(bytes))
	}
}

// plainBytes sums the application payload bytes of nodes that are ready
// to enqueue (sealed frames on encrypted channels).
func (e *Endpoint) plainBytes(nodes []*mem.Node) int {
	n := -len(nodes) * e.overhead()
	for _, node := range nodes {
		n += node.Len()
	}
	return n
}

// nodeSlots returns the endpoint's node staging array, grown to n.
func (e *Endpoint) nodeSlots(n int) []*mem.Node {
	if cap(e.batch) < n {
		e.batch = make([]*mem.Node, n)
	}
	return e.batch[:n]
}

// sendFailed counts a send rejected by a full mbox or an empty pool.
func (e *Endpoint) sendFailed(err error) error {
	e.sendFailures.Add(1)
	return err
}

// stage copies payload into node where sendStaged expects it: at the
// front on plaintext channels, behind room for the nonce on encrypted
// ones, so the seal happens in place with no second copy. The node's
// length is the plaintext length either way.
func (e *Endpoint) stage(node *mem.Node, payload []byte) {
	off := 0
	if e.cipher != nil {
		off = ecrypto.NonceSize
	}
	copy(node.Buf()[off:], payload)
	_ = node.SetLen(len(payload)) // bounded by the MaxPayload check
}

// sendStaged is the one send tail under Send and SendBatch: it
// seals the staged nodes in place on encrypted channels (trace trailer
// first on a tracing runtime), stamps their trace headers, enqueues them
// with one cursor CAS, bumps the traffic counter once and rings the peer
// doorbell once. It returns how many nodes the mbox took; nodes[sent:]
// stay with the caller. A message sealed but rejected by a full mbox
// burns a nonce counter; the replay check only requires monotonic
// counters, so gaps are harmless.
func (e *Endpoint) sendStaged(h *hop, nodes []*mem.Node) (sent int) {
	if e.cipher != nil {
		h.passStart(h.ctx.Traced())
		for _, node := range nodes {
			buf := node.Buf()
			plain := buf[ecrypto.NonceSize : ecrypto.NonceSize+node.Len()]
			if e.traces() {
				plain = trace.AppendHeader(plain, h.ctx)
			}
			blob := e.cipher.Seal(buf[:0], plain, nil)
			if h.corruptSeal() {
				// One flipped ciphertext bit makes the peer's authenticated
				// open reject the message: the injected stand-in for a
				// tampering untrusted runtime (the paper's adversary model,
				// Section 2.3).
				blob[len(blob)/2] ^= 0x80
			}
			_ = node.SetLen(len(blob)) // bounded by the MaxPayload check
		}
		h.sealed(nodes)
	}
	h.outbound(nodes)
	sent = e.out.EnqueueBatch(nodes)
	if sent > 0 {
		e.sent.Add(uint64(sent))
		h.sent(sent, nodes[sent:])
	}
	return sent
}

// Send transmits a copy of payload to the peer eactor: it takes a node
// from the pool, fills (and on encrypted channels seals) the payload,
// and enqueues it — the paper's send path (Figure 3).
func (e *Endpoint) Send(payload []byte) error {
	if len(payload) > e.MaxPayload() {
		return fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), e.MaxPayload())
	}
	h := hop{e: e}
	if !h.beginSend() {
		return ErrMailboxFull
	}
	nodes := e.nodeSlots(1)
	if nodes[0] = e.pool.Get(); nodes[0] == nil {
		return e.sendFailed(ErrPoolEmpty)
	}
	e.stage(nodes[0], payload)
	if e.sendStaged(&h, nodes) == 0 {
		_ = e.pool.Put(nodes[0])
		return e.sendFailed(ErrMailboxFull)
	}
	return nil
}

// noteScratchUse applies the scratch retention policy after an open that
// staged n bytes in e.scratch.
func (e *Endpoint) noteScratchUse(n int) {
	if cap(e.scratch) <= scratchSoftCap || n > scratchSoftCap {
		e.scratchIdle = 0
		return
	}
	e.scratchIdle++
	if e.scratchIdle >= scratchShrinkAfter {
		e.scratch = nil
		e.scratchIdle = 0
	}
}

// SendBatch transmits copies of the payloads to the peer eactor as one
// burst: one pool interaction for all nodes, one enqueue-cursor CAS on
// the mbox, the traffic counter bumped once, and the peer doorbell rung
// once — the amortisation that makes the batch path cheaper than N
// Sends. FIFO order follows slice order.
//
// It returns how many payloads were sent. A short count comes with
// ErrPoolEmpty or ErrMailboxFull; the caller retries payloads[n:]
// on a later invocation.
func (e *Endpoint) SendBatch(payloads [][]byte) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	maxPayload := e.MaxPayload()
	for _, p := range payloads {
		if len(p) > maxPayload {
			return 0, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(p), maxPayload)
		}
	}
	h := hop{e: e, batch: true}
	if !h.beginSend() {
		return 0, ErrMailboxFull
	}
	nodes := e.nodeSlots(len(payloads))
	got := e.pool.GetBatch(nodes)
	if got == 0 {
		return 0, e.sendFailed(ErrPoolEmpty)
	}
	for i, node := range nodes[:got] {
		e.stage(node, payloads[i])
	}
	sent := e.sendStaged(&h, nodes[:got])
	if sent < got {
		_ = e.pool.PutBatch(nodes[sent:got])
	}
	switch {
	case sent == len(payloads):
		return sent, nil
	case sent == got:
		return sent, e.sendFailed(ErrPoolEmpty)
	default:
		return sent, e.sendFailed(ErrMailboxFull)
	}
}

// recvStart dequeues up to want pending messages with one cursor CAS
// into the endpoint's staging array and opens the hop observing them. It
// returns no nodes when the mailbox is empty.
func (e *Endpoint) recvStart(h *hop, want int) []*mem.Node {
	nodes := e.nodeSlots(want)
	got := e.in.DequeueBatch(nodes)
	if got == 0 {
		return nil
	}
	e.received.Add(uint64(got))
	h.beginRecv(nodes[:got])
	return nodes[:got]
}

// open is the one receive helper under Recv and RecvBatch on
// encrypted channels: it returns the application payload of a dequeued
// sealed frame. The frame is authenticated and decrypted into e.scratch
// (valid until the next open), the sender's counter is checked against
// replay and reordering, and the trace trailer is split off; the
// authenticated context inside it, not the untrusted node header,
// decides whether the hop is traced.
func (e *Endpoint) open(h *hop, node *mem.Node) ([]byte, error) {
	blob := node.Payload()
	plain, err := e.cipher.Open(e.scratch[:0], blob, nil)
	if err != nil {
		return nil, err
	}
	e.scratch = plain
	e.noteScratchUse(len(plain))
	if err := e.checkSeq(blob); err != nil {
		return nil, err
	}
	if e.traces() {
		var ctx trace.Ctx
		if plain, ctx = trace.SplitTrailer(plain); ctx.Traced() {
			h.ctx = ctx
			_, _, h.enq = node.Trace()
		}
	}
	h.opened++
	h.openBytes += len(plain)
	return plain, nil
}

// RecvBatch drains up to min(len(bufs), len(lens)) pending messages in
// one pass: a single dequeue-cursor CAS, one scratch-buffer sweep for
// decryption, one pool interaction to release the nodes, and the
// counter bumped once. Message i lands in bufs[i] with its length in
// lens[i]; FIFO order and the encrypted replay check (checkSeq) are
// preserved across batch boundaries.
//
// It returns the number of messages delivered. As with Recv, a message
// that fails authentication, the replay check or the buffer-size check
// is consumed and dropped; subsequent messages of the batch are still
// delivered (compacted towards the front of bufs) and the first error
// is returned.
func (e *Endpoint) RecvBatch(bufs [][]byte, lens []int) (int, error) {
	want := min(len(bufs), len(lens))
	if want == 0 {
		return 0, nil
	}
	h := hop{e: e, batch: true}
	nodes := e.recvStart(&h, want)
	if nodes == nil {
		return 0, nil
	}
	delivered, bytes := 0, 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, node := range nodes {
		payload := node.Payload()
		if e.cipher != nil {
			var err error
			if payload, err = e.open(&h, node); err != nil {
				fail(err)
				continue
			}
		}
		if len(payload) > len(bufs[delivered]) {
			fail(fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, len(payload), len(bufs[delivered])))
			continue
		}
		lens[delivered] = copy(bufs[delivered], payload)
		bytes += lens[delivered]
		delivered++
	}
	if e.cipher != nil {
		h.openedPass()
	}
	h.delivered(delivered, bytes)
	if err := e.pool.PutBatch(nodes); err != nil {
		fail(err)
	}
	return delivered, firstErr
}

// Recv polls for a message and copies it into buf, returning its length.
// ok is false when no message is pending. On encrypted channels the
// payload is authenticated and decrypted before the copy.
func (e *Endpoint) Recv(buf []byte) (n int, ok bool, err error) {
	h := hop{e: e}
	nodes := e.recvStart(&h, 1)
	if nodes == nil {
		return 0, false, nil
	}
	payload := nodes[0].Payload()
	if e.cipher != nil {
		payload, err = e.open(&h, nodes[0])
		h.openedPass()
	}
	switch {
	case err != nil:
	case len(payload) > len(buf):
		err = fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, len(payload), len(buf))
	default:
		n = copy(buf, payload)
		h.delivered(1, n)
	}
	if putErr := e.pool.Put(nodes[0]); putErr != nil && err == nil {
		err = putErr
	}
	return n, true, err
}

// checkSeq enforces strictly increasing sender counters on an
// authenticated blob (the counter is the tail of the explicit nonce).
func (e *Endpoint) checkSeq(blob []byte) error {
	seq := ecrypto.BlobCounter(blob)
	if seq <= e.lastSeq {
		return fmt.Errorf("%w: counter %d after %d", ErrReplay, seq, e.lastSeq)
	}
	e.lastSeq = seq
	return nil
}

// Pending returns the approximate number of queued inbound messages.
func (e *Endpoint) Pending() int { return e.in.Len() }
