// Command xmppserver runs the EActors secure instant-messaging service
// (Section 5.1 of the paper): an enclaved CONNECTOR, N enclaved XMPP
// shards with untrusted READER/WRITER networking eactors, O2O routing
// and per-member re-encrypted group chats.
//
// Usage:
//
//	xmppserver -listen 127.0.0.1:5222 -shards 4 -trusted -enclaves 4
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crypto/rand"

	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/xmpp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xmppserver:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5222", "TCP listen address")
	shards := flag.Int("shards", 1, "number of XMPP eactors")
	trusted := flag.Bool("trusted", true, "run CONNECTOR and XMPP eactors inside enclaves")
	enclaves := flag.Int("enclaves", 1, "number of enclaves hosting the XMPP eactors (when trusted)")
	rooms := flag.String("rooms", "", "comma-separated group chats confined to dedicated enclaves")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval (0 = off)")
	metrics := flag.String("metrics", "", "serve telemetry over HTTP at this address, e.g. :9090 (enables telemetry)")
	traceOn := flag.Bool("trace", false, "enable sampled causal tracing (exported on /debug/traces when -metrics is set)")
	traceSample := flag.Int("trace-sample", 0, "root one trace per this many inbound bursts (0 = default 64)")
	profileOn := flag.Bool("profile", false, "enable per-actor cost accounting (exported on /debug/profile when -metrics is set; see eactors-top)")
	profileSample := flag.Int("profile-sample", 0, "measure one in this many seal/open operations (0 = default 16)")
	profileOut := flag.String("profile-out", "", "append periodic cost-model snapshots to this JSONL file (enables -profile)")
	profileInterval := flag.Duration("profile-interval", 5*time.Second, "snapshot period for -profile-out")
	directory := flag.Bool("directory", true, "keep the online directory in a sealed persistent object store (the paper's Section 5.1 design)")
	s2s := flag.String("s2s", "", "also accept framed server-to-server federation links on this address, e.g. 127.0.0.1:5269 (empty = off)")
	domain := flag.String("domain", "localhost", "local domain announced on federation links (with -s2s)")
	flag.Parse()
	if *profileOut != "" {
		*profileOn = true
	}

	var dedicated []string
	if *rooms != "" {
		dedicated = strings.Split(*rooms, ",")
	}
	var dirStore *pos.Store
	if *directory {
		// The online directory is ephemeral per boot, so a fresh sealing
		// key each start is correct.
		var key [32]byte
		if _, err := rand.Read(key[:]); err != nil {
			return err
		}
		var err error
		if dirStore, err = pos.Open(pos.Options{SizeBytes: 8 << 20, EncryptionKey: &key}); err != nil {
			return fmt.Errorf("directory store: %w", err)
		}
		defer dirStore.Close()
	}
	srv, err := xmpp.Start(xmpp.Options{
		ListenAddr:         *listen,
		Shards:             *shards,
		Trusted:            *trusted,
		EnclaveCount:       *enclaves,
		DedicatedRooms:     dedicated,
		DirectoryStore:     dirStore,
		Telemetry:          *metrics != "",
		Trace:              *traceOn,
		TraceSampleEvery:   *traceSample,
		Profile:            *profileOn,
		ProfileSampleEvery: *profileSample,
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	fmt.Printf("xmppserver: listening on %s (shards=%d trusted=%v enclaves=%d)\n",
		srv.Addr(), *shards, *trusted, *enclaves)
	var s2sSrv *xmpp.S2SServer
	if *s2s != "" {
		if s2sSrv, err = xmpp.ListenS2S(*s2s, *domain, xmpp.S2SOptions{}); err != nil {
			return fmt.Errorf("s2s listener: %w", err)
		}
		defer s2sSrv.Close()
		fmt.Printf("xmppserver: s2s federation on %s (domain %q, framed transport)\n", s2sSrv.Addr(), *domain)
	}
	if *metrics != "" {
		bound, stopHTTP, err := telemetry.Serve(*metrics, srv.Telemetry(),
			telemetry.WithTraces(srv.Tracer()), telemetry.WithProfile(srv.ProfileSource()))
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stopHTTP()
		fmt.Printf("xmppserver: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
		if *traceOn {
			fmt.Printf("xmppserver: traces on http://%s/debug/traces (Chrome trace-event JSON)\n", bound)
		}
		if *profileOn {
			fmt.Printf("xmppserver: cost profiles on http://%s/debug/profile (watch with eactors-top)\n", bound)
		}
	}
	if *profileOut != "" {
		f, err := os.OpenFile(*profileOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("profile snapshot file: %w", err)
		}
		defer f.Close()
		snap := profile.NewSnapshotter(srv.CostProfile, f, *profileInterval)
		snap.Start()
		defer func() {
			if err := snap.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "xmppserver: profile snapshots:", err)
			}
		}()
		fmt.Printf("xmppserver: cost-model snapshots every %s to %s\n", *profileInterval, *profileOut)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-sig:
				fmt.Println("\nxmppserver: shutting down")
				return nil
			case <-ticker.C:
				st := srv.Stats()
				report := srv.Runtime().Report()
				fmt.Printf("xmppserver: online=%d connections=%d routed=%d group-fanout=%d auth-failures=%d\n",
					srv.Online().Len(), st.Connections, st.Routed, st.GroupFanout, st.AuthFailures)
				fmt.Printf("xmppserver: crossings=%d epc-evictions=%d pool-free=%d failed-actors=%v\n",
					report.Platform.Crossings, report.Platform.EvictedPages,
					report.PublicPoolFree, report.FailedActors)
				if s2sSrv != nil {
					fs := s2sSrv.Stats()
					fmt.Printf("xmppserver: s2s links=%d stanzas=%d rejected=%d\n", fs.Links, fs.Stanzas, fs.Rejected)
				}
			}
		}
	}
	<-sig
	fmt.Println("\nxmppserver: shutting down")
	return nil
}
