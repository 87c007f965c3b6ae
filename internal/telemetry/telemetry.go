// Package telemetry is the always-on observability subsystem of the
// EActors runtime: per-worker sharded counters and log-bucketed
// latency histograms. It is designed around two constraints that SGX
// systems impose on measurement (cf. Stress-SGX and the SGX
// benchmarking literature):
//
//   - The zero case must stay zero-cost. Every instrument is usable as a
//     nil pointer: a nil *Counter or *Histogram is a compiled-in no-op
//     whose hot-path cost is one predictable branch.
//     The runtime only allocates instruments when Config.Telemetry is
//     set, so deployments that do not observe pay (almost) nothing.
//
//   - The hot path must not serialise. Counters are sharded per worker
//     with cache-line padding (no false sharing between workers) and
//     histogram buckets are independent atomics.
//
// Aggregation happens on the read side only: Total(), Snapshot() and the
// Prometheus exposition walk the shards. Readers are expected to be rare
// (an HTTP scrape, a Report call); writers are the per-message fast
// paths.
package telemetry

import (
	"sync"
)

// Registry holds a deployment's instruments. Instruments are registered
// once at wiring time (get-or-create by name, mutex-protected) and then
// used lock-free; the registry is safe for concurrent use.
type Registry struct {
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	funcs    map[string]*FuncMetric
	order    []string // registration order for stable exposition
}

// New creates a registry for a deployment with the given worker count:
// every counter it hands out has one shard per worker.
func New(workers int) *Registry {
	if workers < 1 {
		workers = 1
	}
	return &Registry{
		shards:   workers,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]*FuncMetric),
	}
}

// Counter returns the named sharded counter, creating it on first use.
// Returns nil on a nil registry so disabled telemetry composes with the
// nil-receiver no-ops of the instruments.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := newCounter(name, help, r.shards)
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Histogram returns the named log-bucketed histogram, creating it on
// first use. unit is the observation unit ("ns" for latencies, "msgs"
// for batch sizes, ...), recorded in the exposition HELP line.
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, help, unit)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// FuncMetric adapts an existing counter (an atomic the subsystem already
// maintains) into the registry: fn is called at read time. This is how
// pre-telemetry sources of truth — endpoint traffic counters, platform
// simulator stats, pool occupancy — are exposed without duplicating
// state: Report() and /metrics read the same underlying atomics.
type FuncMetric struct {
	name, help string
	gauge      bool
	fn         func() uint64
}

// CounterFunc registers a read-time counter backed by fn (monotonic).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.addFunc(name, help, false, fn)
}

// GaugeFunc registers a read-time gauge backed by fn (may go down:
// queue depths, pool free counts, online sessions).
func (r *Registry) GaugeFunc(name, help string, fn func() uint64) {
	r.addFunc(name, help, true, fn)
}

func (r *Registry) addFunc(name, help string, gauge bool, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		return
	}
	r.funcs[name] = &FuncMetric{name: name, help: help, gauge: gauge, fn: fn}
	r.order = append(r.order, name)
}

// Each walks all registered metrics in registration order, invoking the
// matching callback per kind. Histograms are passed as snapshots; the
// walk takes the registry mutex only to copy the name list, so slow
// consumers do not block registration.
func (r *Registry) Each(counter func(name, help string, total uint64, gauge bool), hist func(name, help, unit string, snap HistSnapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		c := r.counters[name]
		h := r.hists[name]
		f := r.funcs[name]
		r.mu.Unlock()
		switch {
		case c != nil && counter != nil:
			counter(c.name, c.help, c.Total(), false)
		case f != nil && counter != nil:
			counter(f.name, f.help, f.fn(), f.gauge)
		case h != nil && hist != nil:
			hist(h.name, h.help, h.unit, h.Snapshot())
		}
	}
}
