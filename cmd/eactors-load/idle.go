package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/eactors/eactors-go/internal/load"
	"github.com/eactors/eactors-go/internal/pollclient"
)

// idleOptions configure the idle verb: the connection-scaling gate behind
// the connscale-smoke CI job. It launches the real kvserver and
// xmppserver binaries, parks thousands of idle connections on each, and
// asserts that an idle connection stays cheap — at most one goroutine
// (its parked read pump; write pumps exit once drained) plus a fixed allowance,
// and a hard per-connection memory ceiling. It also prints the p99 of a
// small live workload running next to the idle connections, without
// gating on it. The binaries must be prebuilt; scripts/connscale.sh
// builds and runs everything.
type idleOptions struct {
	kvserver   string
	xmppserver string
	conns      int
	settle     time.Duration

	goroutineCeiling int
	connMemCeiling   int

	skipPerf bool
	skipXMPP bool
}

func idleVerb(fs *flag.FlagSet) func(io.Writer) (*load.Result, error) {
	var o idleOptions
	fs.StringVar(&o.kvserver, "kvserver", "bin/kvserver", "kvserver binary")
	fs.StringVar(&o.xmppserver, "xmppserver", "bin/xmppserver", "xmppserver binary")
	fs.IntVar(&o.conns, "conns", 10_000, "idle connections to park on each server")
	fs.DurationVar(&o.settle, "settle", 3*time.Second, "wait after the last idle conn before sampling (write pumps drain, GC settles)")
	fs.IntVar(&o.goroutineCeiling, "goroutine-ceiling", 128, "max server goroutines beyond one per idle connection")
	fs.IntVar(&o.connMemCeiling, "conn-mem-ceiling", 20<<10, "max RSS bytes per idle connection")
	fs.BoolVar(&o.skipPerf, "skip-perf", false, "skip the live workload next to the idle connections")
	fs.BoolVar(&o.skipXMPP, "skip-xmpp", false, "skip the xmppserver half")
	return func(out io.Writer) (*load.Result, error) {
		return nil, runIdle(o, out)
	}
}

// runIdle measures each server in turn and fails if any exceeds a
// ceiling.
func runIdle(o idleOptions, out io.Writer) error {
	servers := []struct {
		bin, name string
	}{{o.kvserver, "kvserver"}}
	if !o.skipXMPP {
		servers = append(servers, struct{ bin, name string }{o.xmppserver, "xmppserver"})
	}
	var rows []row
	failures := 0
	for _, s := range servers {
		r, err := measure(o, s.bin, s.name, out)
		if err != nil {
			return err
		}
		rows = append(rows, r)
		if limit := o.conns + o.goroutineCeiling; r.goroutines > limit {
			fmt.Fprintf(out, "idle: FAIL %s: %d goroutines with %d idle conns exceeds %d — more than one goroutine per idle connection (a write pump that never exits?)\n",
				s.name, r.goroutines, o.conns, limit)
			failures++
		}
		if r.perConnB > o.connMemCeiling {
			fmt.Fprintf(out, "idle: FAIL %s: %dB RSS per idle conn exceeds ceiling %dB\n",
				s.name, r.perConnB, o.connMemCeiling)
			failures++
		}
	}

	fmt.Fprintln(out, "\nidle: table")
	fmt.Fprintln(out, "| server | conns | goroutines | RSS (KB) | per-conn (B) | live p99 |")
	fmt.Fprintln(out, "|--------|-------|------------|----------|--------------|----------|")
	for _, r := range rows {
		fmt.Fprintf(out, "| %s | %d | %d | %d | %d | %v |\n",
			r.server, o.conns, r.goroutines, r.rssKB, r.perConnB, r.p99)
	}

	if failures > 0 {
		return fmt.Errorf("%d assertion(s) failed", failures)
	}
	fmt.Fprintln(out, "idle: all assertions passed")
	return nil
}

// row is one server's measurement under the idle connections.
type row struct {
	server          string
	goroutines      int
	rssKB, perConnB int
	p99             time.Duration
}

// measure starts the server, parks o.conns idle connections on it, and
// samples its goroutines, RSS and (unless o.skipPerf) a live p99.
func measure(o idleOptions, bin, name string, out io.Writer) (row, error) {
	srv, err := startServer(bin, name)
	if err != nil {
		return row{}, err
	}
	defer srv.stop()

	base, err := srv.sample()
	if err != nil {
		return row{}, err
	}
	closeIdle, err := load.Idle(srv.addr, o.conns)
	if err != nil {
		return row{}, err
	}
	defer closeIdle()
	time.Sleep(o.settle)

	loaded, err := srv.sample()
	if err != nil {
		return row{}, err
	}
	r := row{server: name, goroutines: loaded.goroutines, rssKB: loaded.rssKB}
	if o.conns > 0 && loaded.rssKB > base.rssKB {
		r.perConnB = (loaded.rssKB - base.rssKB) * 1024 / o.conns
	}
	// Latency under the parked ballast: a small live workload shares the
	// server with the idle herd. Printed, not gated.
	if !o.skipPerf {
		if r.p99, err = srv.workload(8, 2*time.Second); err != nil {
			return row{}, fmt.Errorf("%s workload under %d idle conns: %w", name, o.conns, err)
		}
	}
	fmt.Fprintf(out, "idle: %s conns=%d goroutines=%d (baseline %d) rss=%dKB (baseline %dKB) per-conn=%dB p99=%v\n",
		name, o.conns, loaded.goroutines, base.goroutines, loaded.rssKB, base.rssKB, r.perConnB, r.p99)
	return r, nil
}

// server is one running server subprocess.
type server struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	metrics string
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startServer launches bin with an ephemeral listen and metrics port
// and waits for both addresses to appear on its stdout.
func startServer(bin, name string) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-stats", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{name: name, cmd: cmd}
	// A server that never reports both addresses is killed, which ends
	// the scan.
	kill := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(out)
	for (s.addr == "" || s.metrics == "") && sc.Scan() {
		if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
			s.addr = m[1]
		}
		if m := metricsRE.FindStringSubmatch(sc.Text()); m != nil {
			s.metrics = m[1]
		}
	}
	kill.Stop()
	if s.addr == "" || s.metrics == "" {
		s.stop()
		return nil, fmt.Errorf("%s did not report listen+metrics addresses", bin)
	}
	// Keep draining stdout so the server never blocks on a full pipe.
	go func() { _, _ = io.Copy(io.Discard, out) }()
	return s, nil
}

func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _, _ = s.cmd.Process.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
		}
	}
}

type sample struct {
	goroutines int
	rssKB      int
}

// sample reads the server's goroutine count and RSS from the process
// self-metrics on its /metrics endpoint.
func (s *server) sample() (sample, error) {
	body, err := pollclient.Get("http://" + s.metrics + "/metrics")
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", s.name, err)
	}
	var out sample
	for _, line := range strings.Split(string(body), "\n") {
		name, value, _ := strings.Cut(line, " ")
		n, _ := strconv.Atoi(value)
		switch name {
		case "eactors_process_goroutines":
			out.goroutines = n
		case "eactors_process_rss_bytes":
			out.rssKB = n >> 10
		}
	}
	if out.goroutines == 0 {
		return out, fmt.Errorf("%s: no eactors_process_goroutines on /metrics", s.name)
	}
	return out, nil
}

// workload runs a small closed-loop workload in the server's protocol
// — lockstep GET/SET/DEL for kvserver, echoed one-to-one messages for
// xmppserver — and returns its p99 latency.
func (s *server) workload(clients int, duration time.Duration) (time.Duration, error) {
	var st load.Stats
	var err error
	switch s.name {
	case "kvserver":
		st, err = load.RunKV(load.KV{Addr: s.addr, Clients: clients, Depth: 1,
			Keys: clients, Value: 32, GetRatio: 0.5, Seed: 1, Measure: duration})
	case "xmppserver":
		st, err = load.RunO2O(load.O2O{Addr: s.addr, Clients: clients, Body: "idle ping", Measure: duration})
	default:
		return 0, fmt.Errorf("no workload for %s", s.name)
	}
	if err != nil {
		return 0, err
	}
	if st.Latency.Count() == 0 {
		return 0, fmt.Errorf("%s workload produced no samples (%d errors)", s.name, st.Errors)
	}
	return st.Latency.Percentile(0.99), nil
}
