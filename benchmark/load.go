package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// recorder is one closed-loop client's tally. The owning client is the
// only writer of the histograms, and they are read after it has
// returned; ops and failed are atomics because the window clock samples
// them from the main goroutine.
type recorder struct {
	ops    atomic.Uint64 // correct completed operations
	failed atomic.Uint64 // errors + timeouts + wrong replies
	// slice is the index of the window slice latencies go to, -1 outside
	// the window; the clock advances it.
	slice atomic.Int32
	lat   []hist   // ns, client issue → completion, one per slice
	_     [64]byte // keep neighbouring recorders off one cache line
}

// done counts one correct completed operation and its latency.
func (r *recorder) done(latency time.Duration) { r.doneN(1, latency) }

// doneN counts n correct operations observed together, as one latency
// sample: the per-operation latency over the interval they shared.
func (r *recorder) doneN(n uint64, latency time.Duration) {
	r.ops.Add(n)
	if i := r.slice.Load(); i >= 0 {
		r.lat[i].observe(int64(latency))
	}
}

// fail counts one failed operation.
func (r *recorder) fail() { r.failed.Add(1) }

// instance is one started deployment with its connected clients, ready
// to be driven.
type instance interface {
	// clients is the number of closed-loop client goroutines (at most
	// nproc: the load generator shares the host with the service).
	clients() int
	// drive runs client i's closed loop until stop reads true, then
	// completes what is in flight and returns.
	drive(i int, stop *atomic.Bool, r *recorder)
	// layers exposes the deployment's public counters, tracer and cost
	// profile to the traced run.
	layers() layers
	// verify runs the workload's post-window output check and returns
	// how many checked operations were attempted and how many failed.
	verify() (attempted, failed uint64)
	// stop tears the deployment down and waits for it.
	stop()
}

// sliceStat is one slice of the window.
type sliceStat struct {
	seconds float64
	ops     uint64
	cpuUs   float64 // getrusage user+sys, µs
	mallocs uint64  // heap objects allocated
	lat     hist
}

// window is what one measured window yields. Every headline number is
// the median of its per-slice values: whatever else runs on the host for
// a few seconds (a compile, a neighbour) moves whole-window means and
// pooled percentiles with it, and the median slice does not move until
// such episodes fill half the window.
type window struct {
	slices  []sliceStat
	ops     uint64 // correct completed ops inside the window
	failed  uint64
	samples uint64  // latency samples inside the window
	tailQ   float64 // the percentile the p99 rows actually report

	opsPerS   float64
	p50Us     float64
	tailUs    float64
	cpuPerOp  float64
	allocsPer float64
}

// sliceLen is the length of a slice: one second, or a third of a window
// too short for three of those (the smoke tests).
func sliceLen(w time.Duration) time.Duration {
	if w >= 3*time.Second {
		return time.Second
	}
	return w / 3
}

// rusage reads the process's resource usage; getrusage(RUSAGE_SELF)
// cannot fail with a valid pointer, so a failure reads as zeros.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative count of heap objects allocated — what
// runtime.MemStats.Mallocs reports, read without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSMiB is the process's high-water resident set (what VmHWM in
// /proc/self/status reports), from getrusage so nothing outside the
// checkout is read.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// windowHooks let the traced run read counters exactly around the
// window (begin, end) and sample gauges at every slice boundary; all run
// on the clock goroutine.
type windowHooks struct{ begin, slice, end func() }

// measure drives inst for warm + win and returns the window's numbers.
// hooks is nil on end-to-end runs.
func measure(inst instance, warm, win time.Duration, hooks *windowHooks) window {
	step := sliceLen(win)
	nSlices := int(win / step)
	n := inst.clients()
	recs := make([]recorder, n)
	for i := range recs {
		recs[i].lat = make([]hist, nSlices)
		recs[i].slice.Store(-1)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst.drive(i, &stop, &recs[i])
		}(i)
	}
	sum := func() (ops, failed uint64) {
		for i := range recs {
			ops += recs[i].ops.Load()
			failed += recs[i].failed.Load()
		}
		return
	}
	setSlice := func(k int) {
		for i := range recs {
			recs[i].slice.Store(int32(k))
		}
	}

	time.Sleep(warm)
	// A collection here keeps the warm-up's garbage from being charged
	// to the window.
	runtime.GC()
	if hooks != nil {
		hooks.begin()
	}
	ops0, failed0 := sum()
	var w window
	w.slices = make([]sliceStat, nSlices)
	prevOps, prevCPU, prevAllocs := ops0, cpuTime(), heapAllocs()
	t0 := time.Now()
	prevT := t0
	for k := 0; k < nSlices; k++ {
		setSlice(k)
		time.Sleep(time.Until(t0.Add(time.Duration(k+1) * step)))
		now, cpu, allocs := time.Now(), cpuTime(), heapAllocs()
		ops, _ := sum()
		w.slices[k] = sliceStat{
			seconds: now.Sub(prevT).Seconds(),
			ops:     ops - prevOps,
			cpuUs:   float64(cpu-prevCPU) / 1e3,
			mallocs: allocs - prevAllocs,
		}
		prevOps, prevT, prevCPU, prevAllocs = ops, now, cpu, allocs
		if hooks != nil {
			hooks.slice()
		}
	}
	setSlice(-1)
	if hooks != nil {
		hooks.end()
	}
	stop.Store(true)
	wg.Wait()

	// Operations in flight at the window's end complete during the
	// drain; they count as attempted (and as failures if they fail) but
	// not towards the window's rates.
	_, failed1 := sum()
	w.ops = prevOps - ops0
	w.failed = failed1 - failed0
	for k := range w.slices {
		for i := range recs {
			w.slices[k].lat.merge(&recs[i].lat[k])
		}
	}
	w.summarise()
	return w
}

// summarise reduces the slices to the window's headline numbers.
func (w *window) summarise() {
	w.samples = 0
	// One tail percentile for the whole window, chosen so that even the
	// slice with the fewest samples has tailSamples beyond it.
	fewest := uint64(0)
	for k, s := range w.slices {
		w.samples += s.lat.n
		if k == 0 || s.lat.n < fewest {
			fewest = s.lat.n
		}
	}
	w.tailQ = tailQuantile(fewest, 0.99)
	per := func(f func(s *sliceStat) float64) float64 {
		vals := make([]float64, len(w.slices))
		for k := range w.slices {
			vals[k] = f(&w.slices[k])
		}
		return median(vals)
	}
	w.opsPerS = per(func(s *sliceStat) float64 { return ratio(float64(s.ops), s.seconds) })
	w.p50Us = per(func(s *sliceStat) float64 { return s.lat.quantile(0.5) / 1e3 })
	w.tailUs = per(func(s *sliceStat) float64 { return s.lat.quantile(w.tailQ) / 1e3 })
	w.cpuPerOp = per(func(s *sliceStat) float64 { return perOp(s.cpuUs, s.ops) })
	w.allocsPer = per(func(s *sliceStat) float64 { return perOp(float64(s.mallocs), s.ops) })
}

// add pools another round's slices into w; summarise afterwards.
func (w *window) add(o *window) {
	w.slices = append(w.slices, o.slices...)
	w.ops += o.ops
	w.failed += o.failed
}

// A single start of the cheaper deployments (1.5 ms for the SMC ring) is
// mostly noise, so after the measured rounds an end-to-end run keeps
// starting and stopping the deployment until setupBudget has been spent
// on starts in total or maxSetups have been timed: the cheap ones get the
// most repeats.
const (
	maxSetups   = 21
	setupBudget = time.Second // what main spends; the smoke tests spend none
)

// moreSetups extends times — the seconds each start of the measured
// rounds took — with further starts within the budget. A start is the
// service start, the preload and the dials: everything between process
// start and the first operation except the warm-up.
func moreSetups(wl *workloadDef, e env, times []float64, budget time.Duration) ([]float64, error) {
	var total float64
	for _, t := range times {
		total += t
	}
	for r := len(times); r < maxSetups && total < budget.Seconds(); r++ {
		t0 := time.Now()
		inst, err := wl.start(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", wl.Name, r, err)
		}
		d := time.Since(t0).Seconds()
		inst.stop()
		times = append(times, d)
		total += d
	}
	return times, nil
}
