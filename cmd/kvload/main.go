// Command kvload drives the KV protocol against a kvserver and reports
// throughput plus latency percentiles — the shard-scaling measurement
// driver behind the EXPERIMENTS.md table.
//
// Usage:
//
//	kvload -server 127.0.0.1:6380 -clients 8 -duration 10s -get-ratio 0.9
//
// Each client keeps -depth requests in flight on one connection (a
// sliding ring: issue the next op, then wait for the oldest once the
// ring is full), which is the pipelining depth sweep behind
// EXPERIMENTS.md; -depth 1 is one request at a time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/eactors/eactors-go/internal/fdlimit"
	"github.com/eactors/eactors-go/internal/load"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "", "server address (required)")
	clients := flag.Int("clients", 8, "concurrent client connections")
	duration := flag.Duration("duration", 10*time.Second, "measure window")
	warmup := flag.Duration("warmup", time.Second, "warmup before measuring")
	keys := flag.Int("keys", 10_000, "key-space size")
	valueSize := flag.Int("value", 128, "value bytes")
	getRatio := flag.Float64("get-ratio", 0.9, "fraction of operations that are GETs (rest split SET/DEL 9:1)")
	seed := flag.Int64("seed", 1, "workload PRNG seed")
	depth := flag.Int("depth", 1, "requests kept in flight per connection (1 = one at a time)")
	idleConns := flag.Int("idle-conns", 0, "idle connections held open for the whole run (readiness-loop scaling ballast)")
	jsonOut := flag.Bool("json", false, "print the results as one JSON object on stdout (progress goes to stderr)")
	flag.Parse()
	if *server == "" {
		return fmt.Errorf("-server is required")
	}

	// With -json, stdout carries exactly one JSON object; everything
	// else goes to stderr so scripted sweeps can pipe straight into jq.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}
	if limit, err := fdlimit.Raise(); err != nil {
		fmt.Fprintf(info, "kvload: fd limit %d (raise failed: %v)\n", limit, err)
	} else if limit > 0 {
		fmt.Fprintf(info, "kvload: fd limit %d\n", limit)
	}
	if *idleConns > 0 {
		closeIdle, err := load.Idle(*server, *idleConns)
		if err != nil {
			return err
		}
		defer closeIdle()
		fmt.Fprintf(info, "kvload: holding %d idle connections\n", *idleConns)
	}

	st, err := load.RunKV(load.KV{
		Addr: *server, Clients: *clients, Depth: *depth,
		Keys: *keys, Value: *valueSize, GetRatio: *getRatio, Seed: *seed,
		Warmup: *warmup, Measure: *duration,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(st.Result("kvload", "", *clients, *depth))
	}
	fmt.Printf("kvload: %d ops in %s = %.0f ops/s (depth=%d, %d errors)\n",
		st.Ops, *duration, st.Rate(), *depth, st.Errors)
	fmt.Printf("kvload: latency p50=%s p95=%s p99=%s\n",
		st.Latency.Percentile(0.50), st.Latency.Percentile(0.95), st.Latency.Percentile(0.99))
	return nil
}
