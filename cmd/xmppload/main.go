// Command xmppload drives the paper's messaging workloads against any
// server speaking the XMPP subset (the EActors service or a baseline)
// and reports throughput plus latency percentiles — the libstrophe
// client driver of Section 6.4, as a standalone tool.
//
// Usage:
//
//	xmppload -server 127.0.0.1:5222 -clients 100 -duration 30s
//	xmppload -server 127.0.0.1:5222 -group room1 -clients 50 -duration 30s
//	xmppload -server 127.0.0.1:5269 -s2s -depth 32 -clients 4 -duration 30s
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
	"github.com/eactors/eactors-go/internal/transport"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xmppload:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "", "server address (required)")
	clients := flag.Int("clients", 10, "concurrent clients (half send, half receive in O2O mode)")
	duration := flag.Duration("duration", 10*time.Second, "measure window")
	warmup := flag.Duration("warmup", time.Second, "warmup before measuring")
	group := flag.String("group", "", "group-chat room: all clients join it, one sends")
	payload := flag.Int("payload", 150, "message payload bytes")
	s2s := flag.Bool("s2s", false, "drive a framed server-to-server federation endpoint instead of the client protocol")
	depth := flag.Int("depth", 32, "stanzas kept in flight per federation link (with -s2s)")
	idleConns := flag.Int("idle-conns", 0, "idle connections held open for the whole run (readiness-loop scaling ballast)")
	jsonOut := flag.Bool("json", false, "print the results as one JSON object on stdout (progress goes to stderr)")
	flag.Parse()
	if *server == "" {
		return fmt.Errorf("-server is required")
	}

	// With -json, stdout carries exactly one JSON object; everything
	// else goes to stderr so scripted sweeps can pipe straight into jq.
	var info io.Writer = os.Stdout
	if *jsonOut {
		info = os.Stderr
	}
	if limit, err := fdlimit.Raise(); err != nil {
		fmt.Fprintf(info, "xmppload: fd limit %d (raise failed: %v)\n", limit, err)
	} else if limit > 0 {
		fmt.Fprintf(info, "xmppload: fd limit %d\n", limit)
	}
	if *idleConns > 0 {
		// The idle connections never handshake, so they sit in the
		// CONNECTOR's await phase, watched by its READER.
		closeIdle, err := load.Idle(*server, *idleConns)
		if err != nil {
			return err
		}
		defer closeIdle()
		fmt.Fprintf(info, "xmppload: holding %d idle connections\n", *idleConns)
	}

	var (
		st       load.Stats
		err      error
		mode     string
		runDepth int
	)
	switch {
	case *s2s:
		mode, runDepth = "s2s", max(*depth, 1)
		fmt.Fprintf(info, "xmppload: s2s against %s, %d links x depth %d, %v warmup + %v measure\n",
			*server, *clients, runDepth, *warmup, *duration)
		st = runS2S(*server, max(*clients, 1), runDepth, makePayload(*payload), *warmup, *duration)
	case *group != "":
		mode = "group"
		fmt.Fprintf(info, "xmppload: group %q against %s, %d members, %v warmup + %v measure\n",
			*group, *server, *clients, *warmup, *duration)
		st, err = load.RunGroup(load.Group{Addr: *server, Room: *group, Members: *clients,
			Body: makePayload(*payload), Warmup: *warmup, Measure: *duration})
	default:
		mode = "o2o"
		fmt.Fprintf(info, "xmppload: O2O against %s, %d clients, %v warmup + %v measure\n",
			*server, *clients, *warmup, *duration)
		st, err = load.RunO2O(load.O2O{Addr: *server, Clients: *clients,
			Body: makePayload(*payload), Warmup: *warmup, Measure: *duration})
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(st.Result("xmppload", mode, *clients, runDepth))
	}
	switch mode {
	case "s2s":
		fmt.Printf("throughput: %.0f stanzas/s (%d acked, %d errors)\n", st.Rate(), st.Ops, st.Errors)
	case "group":
		fmt.Printf("throughput: %.0f group msg/s (%d deliveries to %d members)\n", st.Rate(), st.Ops, st.Fanout)
	default:
		fmt.Printf("throughput: %.0f req/s (%d requests in %v, %d errors)\n", st.Rate(), st.Ops, *duration, st.Errors)
	}
	fmt.Printf("latency:    p50=%v p95=%v p99=%v (%d samples)\n",
		st.Latency.Percentile(0.50).Round(time.Microsecond),
		st.Latency.Percentile(0.95).Round(time.Microsecond),
		st.Latency.Percentile(0.99).Round(time.Microsecond),
		st.Latency.Count())
	return nil
}

// runS2S pumps stanzas over framed federation links, each keeping a
// sliding ring of depth un-acked stanzas in flight — the s2s face of
// the pipelining depth sweep.
func runS2S(server string, links, depth int, body string, warmup, duration time.Duration) load.Stats {
	type slot struct {
		c     *transport.Call
		start time.Time
	}
	return load.Measure(links, warmup, duration, func(id int, w *load.Window) {
		link, err := xmpp.DialS2S(server, 10*time.Second)
		if err != nil {
			w.Fail()
			return
		}
		defer link.Close()
		xml := []byte(stanza.Message(fmt.Sprintf("load-%d@remote", id), "peer@local", body))
		ring := make([]slot, 0, depth)
		reap := func() {
			s := ring[0]
			ring = append(ring[:0], ring[1:]...)
			if err := link.WaitAck(s.c); err != nil {
				w.Fail()
				return
			}
			w.Done(s.start)
		}
		for !w.Stopped() {
			start := time.Now()
			c, err := link.IssueStanza(xml)
			if err != nil {
				w.Fail()
				break
			}
			if ring = append(ring, slot{c, start}); len(ring) == depth {
				reap()
			}
		}
		for len(ring) > 0 {
			reap()
		}
	})
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
