package telemetry

import "sync/atomic"

// cell is one per-worker counter shard, padded out to a cache line so
// two workers bumping adjacent shards never bounce a line between cores
// (the false-sharing trap every sharded-counter design exists to avoid).
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter sharded per worker.
// Writers pick their shard (their worker index); reads sum all shards.
// A nil *Counter is a no-op — the disabled-telemetry fast path.
type Counter struct {
	name, help string
	mask       int
	cells      []cell
}

func newCounter(name, help string, shards int) *Counter {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Counter{name: name, help: help, mask: n - 1, cells: make([]cell, n)}
}

// Inc is Add(shard, 1).
func (c *Counter) Inc(shard int) {
	if c == nil {
		return
	}
	c.cells[shard&c.mask].v.Add(1)
}

// Total sums all shards. The sum is not an atomic snapshot across
// shards; like all telemetry reads it is for monitoring, not
// coordination.
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.cells {
		t += c.Shard(i)
	}
	return t
}

// Shard returns one shard's count: Shard(w) is what worker w added.
func (c *Counter) Shard(shard int) uint64 {
	if c == nil {
		return 0
	}
	return c.cells[shard&c.mask].v.Load()
}
