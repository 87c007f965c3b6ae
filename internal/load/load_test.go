package load

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/testutil/leakcheck"
	"github.com/eactors/eactors-go/internal/xmpp"
)

// TestMain fails the package if a driver leaks its client goroutines.
func TestMain(m *testing.M) { leakcheck.Main(m) }

const window = 300 * time.Millisecond

func zeroCost() *sgx.Platform { return sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())) }

// checkStats asserts a run completed operations, recorded a latency for
// each counted one, kept its percentiles ordered, and that its -json
// object carries exactly the contract's keys.
func checkStats(t *testing.T, st Stats, wantLatencies uint64, mode string, depth int) {
	t.Helper()
	if st.Ops == 0 || st.Rate() <= 0 {
		t.Fatalf("no operations completed: %+v", st)
	}
	if got := uint64(st.Latency.Count()); got != wantLatencies {
		t.Fatalf("latency samples = %d, want %d", got, wantLatencies)
	}
	p50, p95, p99 := st.Latency.Percentile(0.50), st.Latency.Percentile(0.95), st.Latency.Percentile(0.99)
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v", p50, p95, p99)
	}

	raw, err := json.Marshal(st.Result("tool", mode, 2, depth))
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	want := []string{"tool", "ops", "duration_ns", "ops_per_sec", "errors", "clients", "p50_ns", "p95_ns", "p99_ns"}
	if mode != "" {
		want = append(want, "mode")
	}
	if depth != 0 {
		want = append(want, "depth")
	}
	var got []string
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("-json keys = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("-json keys = %v, want %v", got, want)
		}
	}
	if obj["ops"].(float64) != float64(st.Ops) || obj["p99_ns"].(float64) != float64(p99.Nanoseconds()) {
		t.Fatalf("-json values disagree with the run: %s", raw)
	}
}

func TestRunKV(t *testing.T) {
	srv, err := kv.Start(kv.Options{Shards: 2, Platform: zeroCost()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	for _, depth := range []int{1, 8} {
		st, err := RunKV(KV{Addr: srv.Addr(), Clients: 2, Depth: depth, Keys: 64, Value: 32,
			GetRatio: 0.8, Seed: 1, Preload: true, Measure: window})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if st.Errors != 0 {
			t.Fatalf("depth %d: %d errors", depth, st.Errors)
		}
		checkStats(t, st, st.Ops, "", depth)
	}
	if s := srv.Stats(); s.Sessions != 4 || s.Gets == 0 || s.Sets < 64 {
		t.Fatalf("server saw %+v", s)
	}
}

func TestRunO2OAndGroup(t *testing.T) {
	srv, err := xmpp.Start(xmpp.Options{Shards: 1, Platform: zeroCost()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	st, err := RunO2O(O2O{Addr: srv.Addr(), Clients: 4, Body: "hello", Measure: window})
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, st, st.Ops, "o2o", 0)

	const members = 4
	st, err = RunGroup(Group{Addr: srv.Addr(), Room: "load-room", Members: members, Body: "hello", Measure: window})
	if err != nil {
		t.Fatal(err)
	}
	// Only the monitor's receipts carry a latency; the drainers' copies
	// count toward the N−1 fan-out.
	if st.Fanout != members-1 {
		t.Fatalf("fanout = %d, want %d", st.Fanout, members-1)
	}
	checkStats(t, st, uint64(st.Latency.Count()), "group", 0)
	if uint64(st.Latency.Count()) >= st.Ops {
		t.Fatalf("group deliveries %d not above monitor receipts %d", st.Ops, st.Latency.Count())
	}
}

func TestRecorderPercentile(t *testing.T) {
	var r Recorder
	if r.Percentile(0.5) != 0 {
		t.Fatal("empty recorder percentile != 0")
	}
	for i := 100; i >= 1; i-- {
		r.Record(time.Duration(i))
	}
	if r.Percentile(0) != 1 || r.Percentile(0.5) != 50 || r.Percentile(0.99) != 99 || r.Percentile(1) != 100 {
		t.Fatalf("p0/p50/p99/p100 = %v/%v/%v/%v", r.Percentile(0), r.Percentile(0.5), r.Percentile(0.99), r.Percentile(1))
	}
	r.Record(0) // a later sample re-sorts
	if r.Percentile(0) != 0 {
		t.Fatalf("p0 after a smaller sample = %v", r.Percentile(0))
	}
}
