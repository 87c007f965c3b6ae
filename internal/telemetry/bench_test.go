package telemetry

import (
	"testing"
	"time"
)

// The instrument micro-costs below bound what instrumentation can add to
// a hot path; EXPERIMENTS.md cites them next to the end-to-end channel
// overhead numbers.

func BenchmarkCounterInc(b *testing.B) {
	r := New(4)
	c := r.Counter("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(1)
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New(1)
	h := r.Histogram("bench", "", "ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	r := New(1)
	h := r.Histogram("bench", "", "ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(time.Now())
	}
}
