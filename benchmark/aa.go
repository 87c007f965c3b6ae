package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// runSet runs every workload of wls in a process of its own — peak RSS,
// allocation counts and locked worker threads are per process — copying
// each child's output to out, and returns the parsed results by
// workload.
func runSet(o options, wls []*workloadDef, out io.Writer) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]result{}
	for _, wl := range wls {
		cmd := exec.Command(self,
			"-workload", wl.Name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-scratch", o.scratch, "-out", o.out)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(&stdout, out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", wl.Name, err)
		}
		results[wl.Name] = res
	}
	return results, nil
}

// runAA runs the whole set twice on this build, the second time in the
// opposite workload order, and prints per (metric, workload) how far the
// two runs are apart beside the metric's bound. It fails if any
// end-to-end pair is further apart than its bound: a bound the same code
// cannot meet against itself would gate the weather.
func runAA(o options) error {
	o.trace = 0
	first, err := runSet(o, workloads, os.Stderr)
	if err != nil {
		return err
	}
	reversed := slices.Clone(workloads)
	slices.Reverse(reversed)
	second, err := runSet(o, reversed, os.Stderr)
	if err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# A/A: two runs of the same build\n\n%s\n", fingerprint())
	fmt.Fprintf(w, "`-seconds %d -seed %d`; second run in reverse workload order.\n\n", o.seconds, o.seed)
	fmt.Fprintln(w, "| workload | metric | unit | run 1 | run 2 | difference | bound | |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---|")
	outside := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := first[wl.Name].Metrics[d.Name].Value, second[wl.Name].Metrics[d.Name].Value
			diff := math.Abs(relDiff(a, b, d.Better))
			verdict := "ok"
			if diff > d.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4f | %.4f | %.1f %% | %.0f %% | %s |\n",
				wl.Name, d.Name, d.Unit, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if outside > 0 {
		w.Flush()
		return fmt.Errorf("A/A: %d end-to-end pairs differ by more than their bound", outside)
	}
	return nil
}

// fingerprint describes the host the numbers come from, as markdown.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("- CPU: %s\n- nproc: %d, GOMAXPROCS: %d\n- %s %s/%s\n- parent commit: %s\n"+
		"- link: loopback (127.0.0.1); client and service share the host and the process\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}
