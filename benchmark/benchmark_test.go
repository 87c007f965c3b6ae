package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

func TestHistQuantileSmallValuesAreExact(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100; v++ {
		h.observe(v)
	}
	// Values below 128 have a bucket each, [v, v+1): the q-quantile of
	// 1..100 interpolates to exactly 100q + 1 at the top of a bucket.
	if got := h.quantile(0.5); math.Abs(got-51) > 1e-9 {
		t.Errorf("p50 of 1..100 = %v, want 51", got)
	}
	if got := h.quantile(1); math.Abs(got-101) > 1e-9 {
		t.Errorf("p100 of 1..100 = %v, want 101 (upper edge of the last bucket)", got)
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram must read 0")
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	r := newRNG(7, 0)
	exact := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(1000 + r.next()%5_000_000) // 1 µs .. 5 ms in ns
		h.observe(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %v, exact %v: off by more than a bucket", q, got, want)
		}
	}
	h.observe(-5)      // clamps to 0
	h.observe(1 << 50) // clamps into the last bucket
	if h.n != 20002 {
		t.Errorf("n = %d", h.n)
	}
}

func TestHistIndexBoundsAgree(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<30 + 12345, 1<<40 - 1} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d landed in bucket [%v, %v)", v, lo, hi)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{0, 0.99},           // nothing measured: nothing to adjust
		{100000, 0.99},      // 1000 beyond
		{1000, 0.99},        // exactly 10 beyond
		{999, 1 - 10.0/999}, // 9.99 beyond p99: step down
		{200, 0.95},
		{100, 0.90},
		{20, 0.5},
		{5, 0.5}, // never below the median
	} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if median(in) != 4 || !reflect.DeepEqual(in, []float64{5, 1, 4}) {
		t.Errorf("median(5,1,4) = %v, input now %v", median(in), in)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even count takes the mean of the middle pair")
	}
	if median(nil) != 0 || minOf(nil) != 0 {
		t.Error("no values read 0")
	}
	if minOf([]float64{3, 1, 2}) != 1 {
		t.Error("minOf")
	}
}

func TestZeroOpsDoNotDivide(t *testing.T) {
	for name, v := range map[string]float64{
		"perOp":   perOp(12, 0),
		"ratio":   ratio(3, 0),
		"relDiff": relDiff(0, 5, "lower"),
	} {
		if v != 0 {
			t.Errorf("%s with a zero denominator = %v, want 0", name, v)
		}
	}
	if perOp(12, 4) != 3 || ratio(1, 4) != 0.25 {
		t.Error("perOp/ratio arithmetic")
	}
	if d := relDiff(100, 110, "lower"); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v, want +0.10 (worse)", d)
	}
	if d := relDiff(100, 110, "higher"); math.Abs(d+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110 = %v, want -0.10 (better)", d)
	}
}

// TestSummariseTakesPerSliceMedians builds a window whose middle slice
// is the typical one and whose other slices are a stall and a burst.
func TestSummariseTakesPerSliceMedians(t *testing.T) {
	slice := func(ops uint64, latNs int64, cpuUs float64, mallocs uint64) sliceStat {
		s := sliceStat{seconds: 1, ops: ops, cpuUs: cpuUs, mallocs: mallocs}
		for i := uint64(0); i < ops; i++ {
			s.lat.observe(latNs)
		}
		return s
	}
	w := window{slices: []sliceStat{
		slice(1000, 100_000, 50_000, 20_000),
		slice(10, 90_000_000, 900, 100_000), // a stalled slice
		slice(2000, 50_000, 120_000, 44_000),
	}}
	w.summarise()
	if w.opsPerS != 1000 {
		t.Errorf("ops_per_s = %v, want the median slice 1000", w.opsPerS)
	}
	if math.Abs(w.p50Us-100)/100 > 0.01 {
		t.Errorf("lat_p50_us = %v, want ~100", w.p50Us)
	}
	if w.cpuPerOp != 60 {
		t.Errorf("cpu_us_per_op = %v, want median(50, 90, 60) = 60", w.cpuPerOp)
	}
	if w.allocsPer != 22 {
		t.Errorf("allocs_per_op = %v, want median(20, 10000, 22) = 22", w.allocsPer)
	}
	// The stalled slice has 10 samples: none beyond any tail, so the
	// whole window falls back to the median.
	if w.tailQ != 0.5 || w.samples != 3010 {
		t.Errorf("tailQ = %v samples = %d", w.tailQ, w.samples)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	vals := map[string]float64{}
	for i, d := range endToEnd {
		vals[d.Name] = 1.5 + float64(i)/3
	}
	res := finish(100, 0, vals, endToEnd)
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(top); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys = %v", got)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) || !back.Correct {
		t.Errorf("round trip: %+v != %+v", back, res)
	}
	for _, d := range endToEnd {
		if m := back.Metrics[d.Name]; m.Unit != d.Unit || m.Value != vals[d.Name] {
			t.Errorf("%s came back as %+v", d.Name, m)
		}
	}
	if finish(100, 1, vals, endToEnd).Correct || finish(0, 0, vals, endToEnd).Correct {
		t.Error("a failed operation or an empty run is not correct")
	}
}

func TestValueIsSelfDescribing(t *testing.T) {
	for _, size := range []int{128, 1024} {
		buf := make([]byte, size)
		key := []byte("key-17")
		fillValue(buf, keyHash(key), 1, 42)
		hash, writer, seq, ok := parseValue(buf, size)
		if !ok || hash != keyHash(key) || writer != 1 || seq != 42 {
			t.Fatalf("size %d: parsed %x %d %d %v", size, hash, writer, seq, ok)
		}
		buf[size/2] ^= 1
		if _, _, _, ok := parseValue(buf, size); ok {
			t.Errorf("size %d: a flipped bit passed the checksum", size)
		}
		if _, _, _, ok := parseValue(buf[:size-1], size); ok {
			t.Errorf("size %d: a truncated value passed", size)
		}
	}
}

func TestActorRole(t *testing.T) {
	for in, want := range map[string]string{
		"kvstore-1": "kvstore", "xmpp-shard-0": "xmpp-shard", "c-reader": "c-reader",
		"frontend": "frontend", "party-12": "party", "odd name/x": "odd_name_x",
	} {
		if got := actorRole(in); got != want {
			t.Errorf("actorRole(%q) = %q, want %q", in, got, want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []jsonWl     `json:"workloads"`
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonLayer  `json:"per_layer"`
}

type jsonWl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestSpecMatchesBenchmarkJSON keeps the driver's copy of the contract
// equal to spec.go (-update rewrites it) and inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := specJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test -run TestSpecMatchesBenchmarkJSON -update")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the alphabet or too long", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("why of %s: %d characters, must be one line of at most 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
	for _, p := range probes {
		if !seen[p.metric] {
			t.Errorf("probe %s has no per-layer metric", p.metric)
		}
	}
}

// smokeWindow is long enough for every workload to complete operations
// in each of its three slices and short enough for the package to stay
// under ten seconds.
const smokeWindow = 300 * time.Millisecond

func smokeOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{seed: 1, scratch: dir, out: dir}
}

// checkResult asserts that a run was correct and reported every metric
// of defs, and only those, as a finite number.
func checkResult(t *testing.T, res result, defs []metricDef, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d: fail_ratio must be 0", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s was not reported", d.Name)
		case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %+v", d.Name, m)
		case positive && m.Value <= 0:
			t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, m.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			res, notes, err := endToEndRun(wl, smokeOptions(t), smokeWindow)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)
			if len(notes) == 0 {
				t.Error("no sample counts were stated")
			}
		})
	}
}

// TestSmokeTraced runs the traced run once per kind of deployment; the
// other two KV workloads differ from kv_pipelined_set in shape constants
// only, and the end-to-end smoke drives those.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"kv_pipelined_set", "xmpp_o2o", "smc_ring"} {
		wl := workloadByName(name)
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			o := smokeOptions(t)
			res, _, err := tracedRun(wl, o, smokeWindow)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			// The paper's headline property: no enclave transitions on the
			// message path. Only the disk-backed flush path may differ.
			if c := res.Metrics["sgx.crossings_per_op"].Value; c != 0 && wl.Name != "kv_pipelined_set" {
				t.Errorf("sgx.crossings_per_op = %v at steady state", c)
			}
			_, err = os.Stat(o.out + "/" + wl.Name + ".trace.json")
			if hasTracer := wl.Name != "smc_ring"; hasTracer != (err == nil) {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
