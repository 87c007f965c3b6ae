// Command eactors is the operator tool for a running EActors server: it
// attaches to the server's telemetry endpoint (kvserver or xmppserver
// with -metrics) and the first argument picks the view.
//
//	eactors top   -addr 127.0.0.1:9090 [-interval 2s] [-rows 20] [-once] [-o costs.jsonl]
//	eactors trace -addr 127.0.0.1:9090 [-n 5] [-wait 10s] [-o out.json]
//
// top renders a live per-actor cost table from /debug/profile (servers
// run with -profile): body CPU, message rates, enclave crossings, seal
// bandwidth, mailbox dwell, the hottest actor-to-actor edges, and
// per-enclave crossings. The first frame shows cumulative totals;
// every later frame shows rates over the refresh window. With -once it
// prints a single frame and exits; with -o every snapshot it fetches is
// appended to the file as one JSONL record, so repeated runs keep a
// cost history.
//
// trace prints sampled causal traces from /debug/traces (servers run
// with -trace) as per-hop latency breakdowns, newest first; with -o the
// raw Chrome trace-event snapshot is also saved for chrome://tracing or
// Perfetto.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eactors:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || (args[0] != "top" && args[0] != "trace") {
		return fmt.Errorf("usage: eactors top|trace [flags]")
	}
	fs := flag.NewFlagSet("eactors "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	if args[0] == "trace" {
		return runTrace(fs, args[1:], stdout, stderr)
	}
	return runTop(fs, args[1:], stdout, stderr)
}

func runTop(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) (err error) {
	addr := fs.String("addr", "http://127.0.0.1:9090", "server metrics base URL, or a full /debug/profile URL")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	rows := fs.Int("rows", 0, "bound the actor table to the hottest N rows (0 = all)")
	once := fs.Bool("once", false, "print a single frame (cumulative totals) and exit")
	out := fs.String("o", "", "append every fetched snapshot to this file, one JSONL record each")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cur, body, err := profile.Fetch(*addr)
	if err != nil {
		return fmt.Errorf("%w (is the server running with -profile?)", err)
	}
	// The /debug/profile body is one Model.Encode line, so appending
	// bodies keeps the history file JSONL.
	var history *os.File
	if *out != "" {
		if history, err = os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
		defer func() {
			if cerr := history.Close(); err == nil {
				err = cerr
			}
		}()
	}
	record := func(b []byte) error {
		if history == nil {
			return nil
		}
		_, err := history.Write(b)
		return err
	}
	if err := record(body); err != nil {
		return err
	}
	if *once {
		profile.RenderTop(stdout, profile.Model{}, cur, *rows)
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	// First frame: totals since server start. Later frames: deltas over
	// the window, rendered as rates.
	fmt.Fprint(stdout, "\x1b[2J\x1b[H")
	profile.RenderTop(stdout, profile.Model{}, cur, *rows)
	prev := cur
	for {
		select {
		case <-sig:
			fmt.Fprintln(stdout)
			return nil
		case <-ticker.C:
			next, b, err := profile.Fetch(*addr)
			if err != nil {
				// Transient poll failures (server restarting, endpoint
				// busy) keep the last frame on screen.
				fmt.Fprintf(stderr, "eactors top: %v\n", err)
				continue
			}
			if err := record(b); err != nil {
				return err
			}
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
			profile.RenderTop(stdout, prev, next, *rows)
			prev = next
		}
	}
}
