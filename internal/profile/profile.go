// Package profile is the per-actor cost-accounting layer of the EActors
// runtime: it folds exact traffic counters and sampled clock reads into
// one CostProfile per actor — invoke CPU time, messages and bytes sent
// and received per peer (the actor→actor communication matrix), enclave
// crossings charged to the initiating actor, seal/open time and volume,
// and mailbox dwell folded from sampled trace spans — plus the crossings
// of each enclave's member actors. The snapshot (a versioned JSON
// cost model, see snapshot.go) is the stable input
// contract for placement decisions: which enclave/worker should run
// each actor is answerable from observed cost, not static config.
//
// The design follows the telemetry package's two constraints:
//
//   - Disabled is (nearly) free. A nil *Collector is a valid no-op
//     receiver, and the runtime hot paths additionally gate on a single
//     `cell != nil` check, so deployments without Config.Profile pay
//     one predictable branch per site.
//
//   - The hot path never serialises. Cells are padded to a cache line
//     and written only by their owning worker thread (actors and
//     endpoints are single-owner, so "sharding" falls out of ownership);
//     every field is an independent atomic, which keeps the concurrent
//     readers — /debug/profile snapshots, the span folder —
//     race-clean without locks.
//
// Counters (messages, bytes, ops) are exact, and none is kept twice:
// an edge's message count is the sending endpoint's own traffic counter,
// read through the reader RegisterEdge takes, and an actor's sent
// traffic is summed from its outgoing edges when a snapshot is taken.
// Per-operation clock reads (seal/open ns) are taken 1-in-SampleEvery
// on the channel hop's sampling tick and extrapolated by the period at
// write time, so totals are unbiased estimates; dwell comes
// from the tracer's 1-in-N span sampling and is therefore reported as a
// (sum, samples) pair — consumers use the mean, never the sum.
package profile

import (
	"sync"
	"sync/atomic"
)

// SampleEvery is the seal/open clock-read period: the channel hop's one
// sampling tick, shared with the telemetry latency histograms, times 1
// operation in this many, and the measured duration is scaled by it.
const SampleEvery = 16

// ActorCell is one actor's cost accumulator. Fields are written with
// independent atomic adds by the actor's owning worker (and, for the
// dwell pair, by the span folder), and read by snapshots; the trailing
// pad keeps cells of different workers off each other's cache lines.
type ActorCell struct {
	// Invocations and InvokeNs count body runs and their CPU time.
	Invocations atomic.Uint64
	InvokeNs    atomic.Uint64

	// Traffic this actor received. Bytes are plaintext payload bytes
	// (pre-seal), so trusted and untrusted placements of the same actor
	// compare like for like. What it sent lives on its outgoing edges.
	MsgsRecv  atomic.Uint64
	BytesRecv atomic.Uint64

	// Crossings counts enclave boundary transitions the owning worker
	// paid to run this actor's body (charged to the actor whose
	// placement caused them).
	Crossings atomic.Uint64

	// Channel seal/open work performed on this actor's thread for its
	// own messages. Ops and bytes are exact; ns is sampled-extrapolated.
	SealOps   atomic.Uint64
	SealNs    atomic.Uint64
	SealBytes atomic.Uint64
	OpenOps   atomic.Uint64
	OpenNs    atomic.Uint64
	OpenBytes atomic.Uint64

	// DwellNs/DwellSamples accumulate sampled mailbox-dwell spans folded
	// from the tracer (FoldSpans); the quotient is the mean dwell of a
	// sampled message, the sum alone means nothing.
	DwellNs      atomic.Uint64
	DwellSamples atomic.Uint64

	_ [24]byte // pad to 128 bytes
}

// EdgeCell accumulates the plaintext bytes one direction of one channel
// carried from the sending actor to the receiving actor; the message
// count is the sending endpoint's (see RegisterEdge). Each cell has a
// single writer (the sending endpoint's owner thread).
type EdgeCell struct {
	Bytes atomic.Uint64

	_ [56]byte // pad to 64 bytes
}

// ActorMeta is the registration identity of an actor cell.
type ActorMeta struct {
	Name    string
	Enclave string // "" when untrusted
	Worker  int
}

// EdgeMeta identifies one directed communication edge.
type EdgeMeta struct {
	Src, Dst uint32 // actor tags
	Channel  string
}

type actorEntry struct {
	meta ActorMeta
	cell *ActorCell
}

type edgeEntry struct {
	meta EdgeMeta
	msgs func() uint64
	cell *EdgeCell
}

// Collector owns a deployment's cost cells and their metadata. It is
// built once at runtime wiring time (registration is mutex-protected);
// afterwards the hot paths hold direct cell pointers and never touch
// the collector, and snapshot/fold readers take the mutex only to walk
// the immutable entry lists.
type Collector struct {
	mu     sync.Mutex
	actors []actorEntry      // dense by actor tag
	edges  []edgeEntry       // registration order
	encl   []string          // enclave names, registration order
	dwell  map[uint64]uint32 // chanTag<<32|worker → receiving actor tag

	foldMu sync.Mutex
	foldHW uint32 // highest folded span ID (dedup across folds)
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{dwell: make(map[uint64]uint32)}
}

// RegisterActor creates (or returns) the cost cell for the actor with
// the given dense tag. Nil-safe: a nil collector returns a nil cell,
// which the runtime's hot paths treat as "profiling off".
func (c *Collector) RegisterActor(tag uint32, name, enclave string, worker int) *ActorCell {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for int(tag) >= len(c.actors) {
		c.actors = append(c.actors, actorEntry{})
	}
	if c.actors[tag].cell == nil {
		c.actors[tag] = actorEntry{
			meta: ActorMeta{Name: name, Enclave: enclave, Worker: worker},
			cell: &ActorCell{},
		}
	}
	return c.actors[tag].cell
}

// RegisterEdge creates the cell for the directed edge src→dst over the
// named channel. msgs reads the messages the sending endpoint has
// enqueued, the edge's message count. Each endpoint direction registers
// its own edge, so a bidirectional channel contributes two.
func (c *Collector) RegisterEdge(src, dst uint32, channel string, msgs func() uint64) *EdgeCell {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := &EdgeCell{}
	c.edges = append(c.edges, edgeEntry{meta: EdgeMeta{Src: src, Dst: dst, Channel: channel}, msgs: msgs, cell: cell})
	return cell
}

// RegisterEnclave adds an enclave to snapshots, which report the
// crossings summed over its member actors.
func (c *Collector) RegisterEnclave(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encl = append(c.encl, name)
}

// RegisterDwell maps (channel tag, recording worker) to the actor tag
// dwell spans of that channel should be attributed to. Dwell spans are
// recorded by the receiving endpoint's owner worker, so the pair
// identifies the receiver — except when both endpoints of a channel
// live on one worker, where the later registration wins (a documented
// approximation; such deployments pay no crossings anyway, so their
// dwell attribution matters little to placement).
func (c *Collector) RegisterDwell(channelTag uint32, worker int, actorTag uint32) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dwell[uint64(channelTag)<<32|uint64(uint32(worker))] = actorTag
}

// actorCell returns the cell registered for a tag (nil when unknown).
// Callers hold c.mu.
func (c *Collector) actorCellLocked(tag uint32) *ActorCell {
	if int(tag) >= len(c.actors) {
		return nil
	}
	return c.actors[tag].cell
}
