package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the full uint64 range — nanosecond latencies from
// sub-ns to ~584 years land somewhere sensible without configuration.
const histBuckets = 65

// Histogram is a lock-free log-bucketed histogram: one atomic add per
// observation (plus a CAS loop for the running max, contended only when
// a new max is set). Percentiles are extracted from the snapshot as the
// upper bound of the bucket holding the quantile — a ≤2× overestimate by
// construction, which is the right fidelity for "is p99 microseconds or
// milliseconds" questions and costs nothing to maintain.
//
// A nil *Histogram is a no-op.
type Histogram struct {
	name, help, unit string

	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

func newHistogram(name, help, unit string) *Histogram {
	return &Histogram{name: name, help: help, unit: unit}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start. A zero start
// is ignored, which lets sampled call sites leave their start time unset
// on unsampled iterations.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(uint64(time.Since(start)))
}

// Snapshot copies the histogram state for aggregation.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count, Sum, Max uint64
	Buckets         [histBuckets]uint64
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1): the
// upper edge of the log2 bucket containing it, clamped to the observed
// max. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(p * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, b := range s.Buckets {
		seen += b
		if seen >= rank {
			var hi uint64
			if i == 0 {
				hi = 0
			} else if i >= 64 {
				hi = ^uint64(0)
			} else {
				hi = uint64(1)<<uint(i) - 1
			}
			if s.Max > 0 && hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}
