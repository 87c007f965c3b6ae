// Command eactors-load is the load generator for the EActors services.
// The first argument picks the job:
//
//	eactors-load kv   -server 127.0.0.1:6380 -clients 8 -duration 10s -get-ratio 0.9
//	eactors-load xmpp -server 127.0.0.1:5222 -clients 100 -duration 30s
//	eactors-load xmpp -server 127.0.0.1:5222 -group room1 -clients 50
//	eactors-load idle -kvserver bin/kvserver -xmppserver bin/xmppserver -conns 10000
//
// kv drives the framed KV protocol: each client keeps -depth requests in
// flight on one connection (a sliding ring; -depth 1 is lockstep), the
// pipelining sweep behind EXPERIMENTS.md. xmpp drives the paper's
// messaging workloads (Section 6.4's libstrophe client driver) against
// any server speaking the XMPP subset. Both report throughput and
// latency percentiles; with -json they print one JSON object on stdout
// (progress goes to stderr), whose "tool" is "kvload" or "xmppload".
//
// idle is the connection-scaling gate: it launches the real server
// binaries, parks idle connections on each and asserts that an idle
// connection stays cheap (see idle.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"github.com/eactors/eactors-go/internal/fdlimit"
	"github.com/eactors/eactors-go/internal/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eactors-load:", err)
		os.Exit(1)
	}
}

// A verb defines its flags on fs and returns the job they configure.
// The job prints its progress and report on info and returns its
// measured result (nil for idle, which has no -json).
type verb func(fs *flag.FlagSet) func(info io.Writer) (*load.Result, error)

var verbs = map[string]verb{"kv": kvVerb, "xmpp": xmppVerb, "idle": idleVerb}

func run(args []string, stdout, stderr io.Writer) error {
	name := ""
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	if verbs[name] == nil {
		return fmt.Errorf("unknown verb %q: want kv, xmpp or idle", name)
	}
	fs := flag.NewFlagSet("eactors-load "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	job := verbs[name](fs)
	jsonOut := false
	if name != "idle" {
		fs.BoolVar(&jsonOut, "json", false, "print the results as one JSON object on stdout (progress goes to stderr)")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	// With -json, stdout carries exactly one JSON object; everything
	// else goes to stderr so scripted sweeps can pipe straight into jq.
	info := stdout
	if jsonOut {
		info = stderr
	}
	if limit, err := fdlimit.Raise(); err != nil {
		fmt.Fprintf(info, "eactors-load: fd limit %d (raise failed: %v)\n", limit, err)
	} else if limit > 0 {
		fmt.Fprintf(info, "eactors-load: fd limit %d\n", limit)
	}
	res, err := job(info)
	if err != nil || !jsonOut {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

func kvVerb(fs *flag.FlagSet) func(io.Writer) (*load.Result, error) {
	server := fs.String("server", "", "server address (required)")
	clients := fs.Int("clients", 8, "concurrent client connections")
	duration := fs.Duration("duration", 10*time.Second, "measure window")
	warmup := fs.Duration("warmup", time.Second, "warmup before measuring")
	keys := fs.Int("keys", 10_000, "key-space size")
	valueSize := fs.Int("value", 128, "value bytes")
	getRatio := fs.Float64("get-ratio", 0.9, "fraction of operations that are GETs (rest split SET/DEL 9:1)")
	seed := fs.Int64("seed", 1, "workload PRNG seed")
	depth := fs.Int("depth", 1, "requests kept in flight per connection (1 = one at a time)")
	return func(info io.Writer) (*load.Result, error) {
		if *server == "" {
			return nil, fmt.Errorf("-server is required")
		}
		st, err := load.RunKV(load.KV{
			Addr: *server, Clients: *clients, Depth: *depth,
			Keys: *keys, Value: *valueSize, GetRatio: *getRatio, Seed: *seed,
			Warmup: *warmup, Measure: *duration,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(info, "kv: %d ops in %s = %.0f ops/s (depth=%d, %d errors)\n",
			st.Ops, *duration, st.Rate(), *depth, st.Errors)
		fmt.Fprintf(info, "kv: latency p50=%s p95=%s p99=%s\n",
			st.Latency.Percentile(0.50), st.Latency.Percentile(0.95), st.Latency.Percentile(0.99))
		res := st.Result("kvload", "", *clients, *depth)
		return &res, nil
	}
}

func xmppVerb(fs *flag.FlagSet) func(io.Writer) (*load.Result, error) {
	server := fs.String("server", "", "server address (required)")
	clients := fs.Int("clients", 10, "concurrent clients (half send, half receive in O2O mode)")
	duration := fs.Duration("duration", 10*time.Second, "measure window")
	warmup := fs.Duration("warmup", time.Second, "warmup before measuring")
	group := fs.String("group", "", "group-chat room: all clients join it, one sends")
	payload := fs.Int("payload", 150, "message payload bytes")
	return func(info io.Writer) (*load.Result, error) {
		if *server == "" {
			return nil, fmt.Errorf("-server is required")
		}
		var (
			st   load.Stats
			err  error
			mode string
		)
		if *group != "" {
			mode = "group"
			fmt.Fprintf(info, "xmpp: group %q against %s, %d members, %v warmup + %v measure\n",
				*group, *server, *clients, *warmup, *duration)
			st, err = load.RunGroup(load.Group{Addr: *server, Room: *group, Members: *clients,
				Body: makePayload(*payload), Warmup: *warmup, Measure: *duration})
		} else {
			mode = "o2o"
			fmt.Fprintf(info, "xmpp: O2O against %s, %d clients, %v warmup + %v measure\n",
				*server, *clients, *warmup, *duration)
			st, err = load.RunO2O(load.O2O{Addr: *server, Clients: *clients,
				Body: makePayload(*payload), Warmup: *warmup, Measure: *duration})
		}
		if err != nil {
			return nil, err
		}
		if mode == "group" {
			fmt.Fprintf(info, "throughput: %.0f group msg/s (%d deliveries to %d members)\n", st.Rate(), st.Ops, st.Fanout)
		} else {
			fmt.Fprintf(info, "throughput: %.0f req/s (%d requests in %v, %d errors)\n", st.Rate(), st.Ops, *duration, st.Errors)
		}
		fmt.Fprintf(info, "latency:    p50=%v p95=%v p99=%v (%d samples)\n",
			st.Latency.Percentile(0.50).Round(time.Microsecond),
			st.Latency.Percentile(0.95).Round(time.Microsecond),
			st.Latency.Percentile(0.99).Round(time.Microsecond),
			st.Latency.Count())
		res := st.Result("xmppload", mode, *clients, 0)
		return &res, nil
	}
}

// makePayload is an n-byte message body of random letters and digits.
func makePayload(n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rand.Intn(len(letters))]
	}
	return string(b)
}
