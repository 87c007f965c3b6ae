package telemetry

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	h := r.Histogram("y", "", "ns")
	if c != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Add(3, 7)
	c.Inc(0)
	h.Observe(42)
	h.ObserveSince(time.Now())
	if c.Total() != 0 || c.Shard(3) != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("nil instruments must stay zero")
	}
	r.CounterFunc("f", "", func() uint64 { return 1 })
	r.Each(nil, nil)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered output: %q", sb.String())
	}
}

func TestCounterShardingAndTotal(t *testing.T) {
	r := New(4)
	c := r.Counter("msgs", "test")
	if again := r.Counter("msgs", "test"); again != c {
		t.Fatalf("Counter must be get-or-create")
	}
	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(s)
			}
		}(shard)
	}
	wg.Wait()
	c.Add(99, 5) // out-of-range shard is masked, not a panic
	if got := c.Total(); got != 4005 {
		t.Fatalf("Total = %d, want 4005", got)
	}
	for shard, want := range []uint64{1000, 1000, 1000, 1005} {
		if got := c.Shard(shard); got != want {
			t.Fatalf("Shard(%d) = %d, want %d", shard, got, want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New(1)
	h := r.Histogram("lat", "test", "ns")
	// 900 fast observations (~100ns) and 100 slow (~1ms).
	for i := 0; i < 900; i++ {
		h.Observe(100)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if p50 := s.Quantile(0.50); p50 < 100 || p50 >= 1000 {
		t.Fatalf("p50 = %d, want ~[100,1000)", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512*1024 {
		t.Fatalf("p99 = %d, want ~1ms bucket", p99)
	}
	if s.Max != 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	if s.Quantile(1.0) != 1_000_000 {
		t.Fatalf("p100 should clamp to max, got %d", s.Quantile(1.0))
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile must be 0")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New(2)
	r.Counter("worker_invocations", "body invocations").Add(0, 7)
	r.Histogram("invoke_ns", "body latency", "ns").Observe(1500)
	r.GaugeFunc("pool_free", "free nodes", func() uint64 { return 42 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE worker_invocations_total counter",
		"worker_invocations_total 7",
		"# TYPE invoke_ns histogram",
		`invoke_ns_bucket{le="2047"} 1`,
		`invoke_ns_bucket{le="+Inf"} 1`,
		"invoke_ns_sum 1500",
		"invoke_ns_count 1",
		"# TYPE pool_free gauge",
		"pool_free 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := New(1)
	r.Counter("hits", "").Inc(0)
	addr, stop, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Fatalf("metrics body missing counter: %s", buf[:n])
	}
}

// Add increments the counter by n on the given shard. Any shard index is
// legal (masked into range), so callers off the worker threads can pass
// whatever identity they have.
func (c *Counter) Add(shard int, n uint64) {
	if c == nil {
		return
	}
	c.cells[shard&c.mask].v.Add(n)
}
