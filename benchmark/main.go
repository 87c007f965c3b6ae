// Command benchmark is the one harness every performance or simplicity
// change to this repository is judged with: five named workloads, the
// same end-to-end metrics on each with tracing off, and a separate
// traced run that yields the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// result is the run's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	out      string
	scratch  string
	// setupBudget is how long an end-to-end run keeps repeating its
	// set-up; not a flag.
	setupBudget time.Duration
}

func main() {
	o := options{setupBudget: setupBudget}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the benchmark's key and peer choice")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end run")
	flag.BoolVar(&o.aa, "aa", false, "run the set twice on this build and compare against the bounds")
	flag.StringVar(&o.out, "out", "", "directory for <workload>.trace.json (default: under -scratch)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for everything a run writes")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if o.out == "" {
		o.out = filepath.Join(o.scratch, "out")
	}

	var err error
	switch {
	case o.aa:
		err = runAA(o)
	case o.workload == "":
		_, err = runSet(o, workloads, os.Stdout)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds: the driver's 114 runs
// of five workloads, each about 6 s longer than its window (set-ups,
// warm-ups, read-backs), fit its 3420 s with this window and not with
// the 20 s the issue started from.
const defaultSeconds = 18

// warmup is how long a deployment is driven before its window opens:
// connections, caches and the write-back flusher are in their steady
// state well inside a second.
func warmup(win time.Duration) time.Duration { return win / 5 }

// runOne runs one workload in this process and prints its metrics, the
// JSON result line last.
func runOne(o options) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	win := time.Duration(o.seconds) * time.Second
	var res result
	var defs []metricDef
	var notes []string
	var err error
	if o.trace == 1 {
		defs = perLayer
		res, notes, err = tracedRun(wl, o, win)
	} else {
		defs = endToEnd
		res, notes, err = endToEndRun(wl, o, win)
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, wl.Name, defs, res, notes)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", wl.Name, res.Failed, res.Attempted)
	}
	return nil
}

// rounds is how many fresh deployments an end-to-end run measures, each
// for a third of the window, their slices pooled. About one start in ten
// of xmpp_o2o and smc_ring settles, for its whole lifetime, into a mode
// in which no worker ever parks and runs 3× faster; with three starts
// pooled, one odd start cannot decide the median slice.
const rounds = 3

// endToEndRun is the run with telemetry, trace and profile off.
func endToEndRun(wl *workloadDef, o options, win time.Duration) (result, []string, error) {
	e := env{seed: o.seed, scratch: o.scratch}
	var all window
	var setups []float64
	var verified, wrong uint64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		inst, err := wl.start(e)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: set-up %d: %w", wl.Name, r, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		w := measure(inst, warmup(win/rounds), win/rounds, nil)
		va, vf := inst.verify()
		inst.stop()
		// Hand the round's garbage back, so peak RSS is the largest round
		// and not a sum that depends on when the collector ran.
		debug.FreeOSMemory()
		all.add(&w)
		verified, wrong = verified+va, wrong+vf
	}
	all.summarise()
	setups, err := moreSetups(wl, e, setups, o.setupBudget)
	if err != nil {
		return result{}, nil, err
	}

	res := finish(all.ops+all.failed+verified, all.failed+wrong, map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     all.opsPerS,
		"lat_p50_us":    all.p50Us,
		"lat_p99_us":    all.tailUs,
		"cpu_us_per_op": all.cpuPerOp,
		"allocs_per_op": all.allocsPer,
		"peak_rss_mb":   peakRSSMiB(),
	}, endToEnd)
	return res, all.notes(), nil
}

// notes says what a window's numbers rest on: the sample counts, which
// percentile the tail metric really is, and the slices themselves.
func (w *window) notes() []string {
	rates := make([]float64, len(w.slices))
	for k, s := range w.slices {
		rates[k] = ratio(float64(s.ops), s.seconds)
	}
	return []string{
		fmt.Sprintf("%d ops and %d latency samples in %d slices; every metric is the median of its per-slice values; the p99 row reports p%.4g",
			w.ops, w.samples, len(w.slices), 100*w.tailQ),
		fmt.Sprintf("slice ops/s: %.0f", rates),
	}
}

// finish builds the result from measured values, in the order and with
// the units of defs; a value missing from vals is a bug and panics.
func finish(attempted, failed uint64, vals map[string]float64, defs []metricDef) result {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

// printMetrics prints every metric by name with its unit, in spec order.
func printMetrics(out *os.File, workload string, defs []metricDef, res result, notes []string) {
	fmt.Fprintf(out, "# %s\n", workload)
	for _, d := range defs {
		fmt.Fprintf(out, "%-40s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	fmt.Fprintf(out, "# fail_ratio %g (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
