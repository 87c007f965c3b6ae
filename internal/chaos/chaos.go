// Package chaos runs the repository's example services under the
// deterministic fault injector (internal/faults) and checks that they
// still converge to correct results. It is the harness behind the CI
// chaos job: every run is driven by a single seed, and the injector
// guarantees an identical per-site fault schedule for the same seed,
// so any failure reproduces with
//
//	CHAOS_SEED=<seed> go test -race -run <Test> ./internal/chaos
//
// The package deliberately keeps the harness in a non-test file so
// `go build ./...` type-checks it and other packages (benchmarks,
// future soak tools) can reuse the runs.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/smc"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
)

// DefaultSeeds are the seeds CI runs the chaos suite under. Three
// fixed values, so the fault schedules exercised on every commit are
// stable and failures bisect cleanly.
var DefaultSeeds = []uint64{1, 7, 42}

// SeedFromEnv returns the seed from CHAOS_SEED if set (the
// reproduction path printed on failure), else def.
func SeedFromEnv(def uint64) uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// DefaultRules is the standard chaos schedule: four fault classes
// spread over the enclave-crossing, channel, and seal sites. Rates are
// low enough that forward progress dominates, high enough that every
// armed class fires many times in a few thousand operations. Delay sits
// on the exit site, which the secure-sum ring never reaches (it makes
// no crossings per round), so at most the three seal and send classes
// can fire there.
func DefaultRules() []faults.Rule {
	return []faults.Rule{
		{Site: faults.SiteSeal, Class: faults.SealCorrupt, Rate: 0.02},
		{Site: faults.SiteSend, Class: faults.SendFail, Rate: 0.02},
		{Site: faults.SiteSend, Class: faults.DoorbellDrop, Rate: 0.01},
		{Site: faults.SiteExit, Class: faults.Delay, Rate: 0.002, Delay: 100 * time.Microsecond},
	}
}

// XMPPRules weights the schedule toward the sites the XMPP service
// actually exercises. Its traffic volume per delivered message is far
// lower than the secure-sum ring's (a handful of channel sends per
// hop, and client-bound traffic leaves the enclaves through untrusted
// WRITERs, so channel seals are rare), so the rates are much higher to
// make several classes fire within a short run.
func XMPPRules() []faults.Rule {
	return []faults.Rule{
		{Site: faults.SiteSeal, Class: faults.SealCorrupt, Rate: 0.15},
		{Site: faults.SiteSend, Class: faults.SendFail, Rate: 0.08},
		{Site: faults.SiteSend, Class: faults.DoorbellDrop, Rate: 0.05},
		{Site: faults.SiteRecv, Class: faults.Delay, Rate: 0.05, Delay: 50 * time.Microsecond},
	}
}

// NewInjector builds an injector with the standard chaos schedule.
func NewInjector(seed uint64) *faults.Injector {
	return faults.New(faults.Config{Seed: seed, Rules: DefaultRules()})
}

// Result summarises one chaos run.
type Result struct {
	Seed     uint64
	Rounds   uint64            // securesum rounds / xmpp messages delivered
	Injected uint64            // total faults injected
	ByClass  map[string]uint64 // injected faults per class name
}

// RunSecureSum drives the EActors secure-sum ring (3 parties,
// encrypted ring links) under the chaos schedule until `rounds` sums
// complete, then verifies the final sum against the protocol's
// closed-form expectation. Corrupted seals, dropped sends, and lost
// doorbells are recovered by the ring's round-tag retransmission; a
// stall past the timeout is a convergence failure.
func RunSecureSum(seed, rounds uint64, dynamic bool, timeout time.Duration) (Result, error) {
	inj := NewInjector(seed)
	res := Result{Seed: seed}
	const parties, dim = 3, 16
	svc, err := smc.StartEA(smc.Options{
		Parties: parties,
		Dim:     dim,
		Dynamic: dynamic,
		Faults:  inj,
		// Tight, so injected losses are repaired quickly relative to
		// the test budget.
		RetransmitAfter: 2 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	deadline := time.Now().Add(timeout)
	for svc.Rounds() < rounds {
		if time.Now().After(deadline) {
			svc.Stop()
			return res, fmt.Errorf("chaos: secure sum stalled at %d/%d rounds (seed %d, %d faults injected)",
				svc.Rounds(), rounds, seed, inj.Injected())
		}
		time.Sleep(time.Millisecond)
	}
	// Stop first: lastSum and the round counter are then a consistent
	// pair (both are written inside one actor invocation).
	svc.Stop()
	completed := svc.Rounds()
	want := smc.ExpectedSum(parties, dim, int(completed), dynamic)
	got := svc.LastSum()
	if len(got) != len(want) {
		return res, fmt.Errorf("chaos: sum has %d elements, want %d (seed %d)", len(got), len(want), seed)
	}
	for i := range want {
		if got[i] != want[i] {
			return res, fmt.Errorf("chaos: sum[%d] = %d, want %d after %d rounds (seed %d)",
				i, got[i], want[i], completed, seed)
		}
	}
	res.Rounds = completed
	res.Injected = inj.Injected()
	res.ByClass = inj.InjectedByClass()
	return res, nil
}

// RunXMPP starts the sharded XMPP service with the chaos schedule
// armed and pushes `messages` distinct chat messages from alice to bob
// over real TCP connections. The service's control plane (handshake,
// watch, handoff) waits out injected send failures in its actors' send
// stages and must survive them on its own; the chat data plane sheds
// load by design, so the harness layers the obvious client protocol on
// top: resend until the receiver has seen the body, dedup on the
// receiving side.
func RunXMPP(seed uint64, messages int, timeout time.Duration) (Result, error) {
	inj := faults.New(faults.Config{Seed: seed, Rules: XMPPRules()})
	res := Result{Seed: seed}
	// Trusted, so the shards sit in enclaves: crossings exercise the
	// enter/exit fault sites and cross-enclave channels the seal site.
	srv, err := xmpp.Start(xmpp.Options{
		Shards: 2, Trusted: true, EnclaveCount: 2, Faults: inj,
		// Observability stays on so a failing seed leaves post-mortems
		// (metrics + densely sampled traces, see dumpArtifacts).
		Telemetry: true, Trace: true, TraceSampleEvery: 8,
	})
	if err != nil {
		return res, err
	}
	defer srv.Stop()
	fail := func(err error) (Result, error) {
		dumpArtifacts("xmpp", seed, srv.Runtime())
		return res, err
	}

	// A corrupted seal on a handshake frame or on the encrypted
	// connector→shard session handoff is a loss no send stage can see
	// (the send succeeded; the receiver dropped the payload), and
	// neither has end-to-end retransmission — it wedges that session
	// for good. The recovery, like any real XMPP client's, is to
	// reconnect: fresh socket, fresh handshake, fresh handoff.
	var alice, bob *client.Client
	connect := func() error {
		if alice != nil {
			_ = alice.Close()
		}
		if bob != nil {
			_ = bob.Close()
		}
		var err error
		if alice, err = dialRetry(srv.Addr(), "alice", 5, 3*time.Second); err != nil {
			return fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		if bob, err = dialRetry(srv.Addr(), "bob", 5, 3*time.Second); err != nil {
			return fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		return nil
	}
	if err := connect(); err != nil {
		return fail(err)
	}
	defer func() {
		_ = alice.Close()
		_ = bob.Close()
	}()

	deadline := time.Now().Add(timeout)
	seen := make(map[string]bool)
	for i := 0; i < messages; i++ {
		body := fmt.Sprintf("chaos-%d", i)
		stall := time.Now()
		for !seen[body] {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("chaos: xmpp delivered %d/%d messages before timeout (seed %d, %d faults injected)",
					i, messages, seed, inj.Injected()))
			}
			if time.Since(stall) > time.Second {
				if err := connect(); err != nil {
					return fail(err)
				}
				stall = time.Now()
			}
			if err := alice.SendMessage("bob", body); err != nil {
				// The server reset the connection; reconnect below.
				stall = stall.Add(-time.Hour)
				continue
			}
			// Drain whatever arrived; duplicates from earlier resends
			// collapse into the seen set.
			for {
				m, err := bob.ReadMessage(20 * time.Millisecond)
				if err != nil {
					break
				}
				seen[m.Body] = true
				stall = time.Now()
			}
		}
		res.Rounds++
	}
	res.Injected = inj.Injected()
	res.ByClass = inj.InjectedByClass()
	return res, nil
}

// dialRetry connects and authenticates a client, reconnecting when an
// injected fault ate part of the handshake.
func dialRetry(addr, user string, attempts int, each time.Duration) (*client.Client, error) {
	var err error
	for i := 0; i < attempts; i++ {
		var c *client.Client
		if c, err = client.Dial(addr, user, each); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("dial %s after %d attempts: %w", user, attempts, err)
}
