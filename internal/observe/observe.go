// Package observe is the observability wiring kvserver and xmppserver
// share: one flag set, the telemetry endpoint with its trace and
// cost-profile routes, the cost-model snapshot file, and the
// signal-bounded stats loop.
package observe

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
)

// Flags are the observability settings of one server process.
type Flags struct {
	Metrics         string
	Trace           bool
	TraceSample     int
	Profile         bool
	ProfileOut      string
	ProfileInterval time.Duration
	Stats           time.Duration
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "serve telemetry over HTTP at this address, e.g. :9090 (enables telemetry)")
	fs.BoolVar(&f.Trace, "trace", false, "enable sampled causal tracing (exported on /debug/traces when -metrics is set)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "root one trace per this many inbound bursts (0 = default 64)")
	fs.BoolVar(&f.Profile, "profile", false, "enable per-actor cost accounting (exported on /debug/profile when -metrics is set; see eactors top)")
	fs.StringVar(&f.ProfileOut, "profile-out", "", "append periodic cost-model snapshots to this JSONL file (enables -profile)")
	fs.DurationVar(&f.ProfileInterval, "profile-interval", 5*time.Second, "snapshot period for -profile-out")
	fs.DurationVar(&f.Stats, "stats", 10*time.Second, "stats reporting interval (0 = off)")
	return f
}

// Telemetry reports whether the runtime's telemetry must be enabled.
func (f *Flags) Telemetry() bool { return f.Metrics != "" }

// Profiling reports whether per-actor cost accounting must be enabled.
func (f *Flags) Profiling() bool { return f.Profile || f.ProfileOut != "" }

// Source is what a running server exposes to the observability wiring.
type Source interface {
	Telemetry() *telemetry.Registry
	Tracer() *trace.Tracer
	ProfileSource() func() profile.Model
}

// Run serves the telemetry endpoint and the snapshot file that f asks
// for, calls stats every f.Stats, and returns on SIGINT or SIGTERM.
// Every line it prints starts with name.
func (f *Flags) Run(name string, src Source, stats func()) error {
	if f.Metrics != "" {
		bound, stopHTTP, err := telemetry.Serve(f.Metrics, src.Telemetry(),
			telemetry.WithTraces(src.Tracer()), telemetry.WithProfile(src.ProfileSource()))
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stopHTTP()
		fmt.Printf("%s: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", name, bound)
		if f.Trace {
			fmt.Printf("%s: traces on http://%s/debug/traces (Chrome trace-event JSON)\n", name, bound)
		}
		if f.Profiling() {
			fmt.Printf("%s: cost profiles on http://%s/debug/profile (watch with eactors top)\n", name, bound)
		}
	}
	if f.ProfileOut != "" {
		file, err := os.OpenFile(f.ProfileOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("profile snapshot file: %w", err)
		}
		defer file.Close()
		snap := profile.NewSnapshotter(src.ProfileSource(), file, f.ProfileInterval)
		snap.Start()
		defer func() {
			if err := snap.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: profile snapshots: %v\n", name, err)
			}
		}()
		fmt.Printf("%s: cost-model snapshots every %s to %s\n", name, f.ProfileInterval, f.ProfileOut)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if f.Stats > 0 {
		ticker := time.NewTicker(f.Stats)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-sig:
			fmt.Printf("\n%s: shutting down\n", name)
			return nil
		case <-tick:
			stats()
		}
	}
}
