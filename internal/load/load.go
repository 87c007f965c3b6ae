// Package load is the closed-loop client driver behind every load tool
// in the repository — cmd/eactors-load's kv, xmpp and idle verbs and the
// figure sweeps of internal/bench. Every client waits for its reply
// before it sends the next request (the paper's §6.4 driver model), an
// operation counts only inside the measure window that follows the
// warm-up, and latency is issue-to-completion.
package load

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Window is one measurement shared by a run's client goroutines: they
// loop until Stopped, and an operation they finish counts only while
// the measure window is open. Failures count for the whole run.
type Window struct {
	stop      chan struct{}
	measuring atomic.Bool
	ops, errs atomic.Uint64
	lat       Recorder
}

// Stopped reports whether the run is over; clients check it between
// operations.
func (w *Window) Stopped() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// Done records one operation issued at start and completed now.
func (w *Window) Done(start time.Time) {
	if w.measuring.Load() {
		w.ops.Add(1)
		w.lat.Record(time.Since(start))
	}
}

// Count records one completion that has no latency of its own (a group
// message delivered to a member other than the monitor).
func (w *Window) Count() {
	if w.measuring.Load() {
		w.ops.Add(1)
	}
}

// Fail records one failed operation.
func (w *Window) Fail() { w.errs.Add(1) }

// Stats is what one run measured.
type Stats struct {
	// Ops counts completions inside the window: operations, or
	// deliveries for a group run.
	Ops    uint64
	Errors uint64
	// Window is the measure window's length.
	Window time.Duration
	// Fanout is completions per request: 1, or the N−1 deliveries of one
	// group message.
	Fanout  int
	Latency *Recorder
}

// Rate is requests completed per second of the measure window (0 for
// the zero Stats a failed run returns).
func (s Stats) Rate() float64 {
	if s.Window <= 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Fanout) / s.Window.Seconds()
}

// Measure runs client(id, w) on n goroutines, lets them warm up, opens
// the measure window for measure, then stops them and returns once
// every client has returned.
func Measure(n int, warmup, measure time.Duration, client func(id int, w *Window)) Stats {
	w := &Window{stop: make(chan struct{})}
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client(id, w)
		}(id)
	}
	time.Sleep(warmup)
	w.measuring.Store(true)
	time.Sleep(measure)
	w.measuring.Store(false)
	close(w.stop)
	wg.Wait()
	return Stats{Ops: w.ops.Load(), Errors: w.errs.Load(), Window: measure, Fanout: 1, Latency: &w.lat}
}

// maxSamples bounds a Recorder's memory (8 MB of samples).
const maxSamples = 1_000_000

// Recorder collects latency samples for percentile reporting. Safe for
// concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// Record adds one sample; past maxSamples it is dropped.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	if len(r.samples) < maxSamples {
		r.samples = append(r.samples, d)
		r.sorted = false
	}
	r.mu.Unlock()
}

// Count returns the number of samples held.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Percentile returns the sample at rank p·(n−1) of the sorted samples
// (p in [0, 1]), or 0 without samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return r.samples[int(p*float64(len(r.samples)-1))]
}

// Result is the -json contract of the load tools: one object on stdout,
// throughput plus latency percentiles, all durations in nanoseconds.
type Result struct {
	Tool       string  `json:"tool"`
	Mode       string  `json:"mode,omitempty"`
	Ops        uint64  `json:"ops"`
	DurationNs int64   `json:"duration_ns"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Errors     uint64  `json:"errors"`
	Clients    int     `json:"clients"`
	Depth      int     `json:"depth,omitempty"`
	P50Ns      int64   `json:"p50_ns"`
	P95Ns      int64   `json:"p95_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// Result fills the -json contract from s.
func (s Stats) Result(tool, mode string, clients, depth int) Result {
	return Result{
		Tool:       tool,
		Mode:       mode,
		Ops:        s.Ops,
		DurationNs: s.Window.Nanoseconds(),
		OpsPerSec:  s.Rate(),
		Errors:     s.Errors,
		Clients:    clients,
		Depth:      depth,
		P50Ns:      s.Latency.Percentile(0.50).Nanoseconds(),
		P95Ns:      s.Latency.Percentile(0.95).Nanoseconds(),
		P99Ns:      s.Latency.Percentile(0.99).Nanoseconds(),
	}
}

// Idle dials and holds count TCP connections that never send a byte —
// ballast for measuring how a server scales with mostly-idle fan-in.
// The returned func closes them.
func Idle(addr string, count int) (func(), error) {
	conns := make([]net.Conn, 0, count)
	closeAll := func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for i := 0; i < count; i++ {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("load: idle conn %d/%d: %w", i, count, err)
		}
		conns = append(conns, c)
	}
	return closeAll, nil
}
