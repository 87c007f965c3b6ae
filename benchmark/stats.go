package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size latency histogram: constant memory and no
// allocation per sample, so recording neither grows peak RSS with the
// number of operations nor shows up in allocs_per_op. Buckets are
// log-linear — 128 per power of two, 0.8 % wide — and quantiles
// interpolate inside a bucket, which keeps the quantisation an order of
// magnitude under the tightest latency bound (10 %).
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values are nanoseconds; 2^40 ns ≈ 18 min is far beyond any call
	// timeout, and larger samples clamp into the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// histIndex maps a value to its bucket. Values below histSub get one
// bucket each (exact); above, the top histSubBits bits after the
// leading one select the bucket within the value's power of two.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading one, >= histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub + histSubBits - 1
	sub := i % histSub
	width := math.Ldexp(1, exp-histSubBits)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) in the histogram's unit,
// or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics §1).
const tailSamples = 10

// tailQuantile picks the tail percentile to report from n samples: want
// (0.99) when at least tailSamples samples lie beyond it, otherwise the
// highest quantile that still has tailSamples beyond it, and the median
// when even that does not exist.
func tailQuantile(n uint64, want float64) float64 {
	if n == 0 {
		return want
	}
	if float64(n)*(1-want) >= tailSamples {
		return want
	}
	q := 1 - tailSamples/float64(n)
	if q < 0.5 {
		return 0.5
	}
	return q
}

// median returns the median of xs (mean of the two middle values for an
// even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minOf returns the smallest of xs, or 0 for no values.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// perOp divides a counter delta by the operations of the window. A
// window without operations reads 0, not NaN or Inf: the run already
// fails on attempted == 0, and a NaN would not survive the JSON line.
func perOp(delta float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return delta / float64(ops)
}

// ratio is num/den with the same zero rule as perOp.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relDiff is the relative distance of b from a in the direction that
// counts as worse: positive when b is worse than a. better is "lower"
// or "higher".
func relDiff(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
