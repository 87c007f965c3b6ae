package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/eactors/eactors-go/internal/pollclient"
)

// chromeEvent is one "X" event of the server's Chrome trace-event JSON.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs
	Dur  float64 `json:"dur"` // µs
	Tid  int     `json:"tid"` // worker+1; 0 = system
	Args struct {
		Trace uint64 `json:"trace"`
	} `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// runTrace polls /debug/traces until it has seen -n distinct traces (or
// -wait expires), then prints the most recent ones, newest first.
func runTrace(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	addr := fs.String("addr", "http://127.0.0.1:9090", "server metrics base URL, or a full /debug/traces URL")
	n := fs.Int("n", 5, "number of distinct traces to sample")
	wait := fs.Duration("wait", 10*time.Second, "how long to poll for new traces before settling for what arrived")
	every := fs.Duration("every", 250*time.Millisecond, "poll interval")
	out := fs.String("o", "", "also write the final raw snapshot to this file (Chrome trace-event JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	url := pollclient.URL(*addr, "/debug/traces")

	// Poll until n distinct traces were observed or the wait expires.
	// Each snapshot is complete (the server rings never forget until
	// overwritten), so only the final body needs keeping.
	var body []byte
	traces := map[uint64][]chromeEvent{}
	deadline := time.Now().Add(*wait)
	for {
		b, err := pollclient.Get(url)
		if err != nil {
			return err
		}
		body = b
		var tr chromeTrace
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("parsing %s: %w", url, err)
		}
		traces = map[uint64][]chromeEvent{}
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "X" || ev.Args.Trace == 0 {
				continue
			}
			traces[ev.Args.Trace] = append(traces[ev.Args.Trace], ev)
		}
		if len(traces) >= *n || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(*every)
	}
	if len(traces) == 0 {
		return fmt.Errorf("no sampled traces at %s (is the server running with tracing enabled?)", url)
	}

	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "eactors trace: snapshot saved to %s\n", *out)
	}

	ids := make([]uint64, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return start(traces[ids[i]]) > start(traces[ids[j]]) })
	if len(ids) > *n {
		ids = ids[:*n]
	}
	fmt.Fprintf(stdout, "%d traces sampled, showing %d (newest first)\n", len(traces), len(ids))
	for _, id := range ids {
		printTrace(stdout, id, traces[id])
	}
	return nil
}

// start returns the trace's earliest event timestamp in µs.
func start(evs []chromeEvent) float64 {
	s := evs[0].Ts
	for _, ev := range evs[1:] {
		if ev.Ts < s {
			s = ev.Ts
		}
	}
	return s
}

// printTrace renders one trace as a per-hop latency breakdown: every
// span with its offset from the trace root, its share of the critical
// path (end-to-end wall time), and the worker that recorded it.
func printTrace(w io.Writer, id uint64, evs []chromeEvent) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	root := evs[0].Ts
	var end float64
	for _, ev := range evs {
		if e := ev.Ts + ev.Dur; e > end {
			end = e
		}
	}
	total := end - root
	fmt.Fprintf(w, "\ntrace %d — %d hops, %s end to end\n", id, len(evs), us(total))
	for _, ev := range evs {
		worker := "system"
		if ev.Tid > 0 {
			worker = fmt.Sprintf("worker %d", ev.Tid-1)
		}
		share := 0.0
		if total > 0 {
			share = 100 * ev.Dur / total
		}
		fmt.Fprintf(w, "  +%-10s %-32s %-9s %10s  %5.1f%%\n",
			us(ev.Ts-root), ev.Name, worker, us(ev.Dur), share)
	}
}

// us renders a µs quantity compactly.
func us(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3fs", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3fms", v/1e3)
	default:
		return fmt.Sprintf("%.1fµs", v)
	}
}
