// Package observe is the observability wiring kvserver and xmppserver
// share: one flag set, the telemetry endpoint with its trace and
// cost-profile routes, and the signal-bounded stats loop.
package observe

import (
	"errors"
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
	Metrics     string
	Trace       bool
	TraceSample int
	Profile     bool
	Stats       time.Duration
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "serve telemetry over HTTP at this address, e.g. :9090 (enables telemetry)")
	fs.BoolVar(&f.Trace, "trace", false, "enable sampled causal tracing, served on /debug/traces (needs -metrics)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "root one trace per this many inbound bursts (0 = default 64; needs -metrics)")
	fs.BoolVar(&f.Profile, "profile", false, "enable per-actor cost accounting, served on /debug/profile for eactors top (needs -metrics)")
	fs.DurationVar(&f.Stats, "stats", 10*time.Second, "stats reporting interval (0 = off)")
	return f
}

// Check rejects a sink armed without -metrics. The HTTP endpoint is the
// only route by which traces and cost profiles leave the process, so a
// sink armed without it would pay its recording cost for data nobody
// can read.
func (f *Flags) Check() error {
	if f.Metrics != "" {
		return nil
	}
	switch {
	case f.Trace:
		return errors.New("-trace needs -metrics: traces are served only on its /debug/traces")
	case f.TraceSample != 0:
		return errors.New("-trace-sample needs -metrics: traces are served only on its /debug/traces")
	case f.Profile:
		return errors.New("-profile needs -metrics: cost profiles are served only on its /debug/profile")
	}
	return nil
}

// Telemetry reports whether the runtime's telemetry must be enabled.
func (f *Flags) Telemetry() bool { return f.Metrics != "" }

// Source is what a running server exposes to the observability wiring.
type Source interface {
	Telemetry() *telemetry.Registry
	Tracer() *trace.Tracer
	ProfileSource() func() profile.Model
}

// Run serves the telemetry endpoint when f asks for one, calls stats
// every f.Stats, and returns on SIGINT or SIGTERM. Every line it prints
// starts with name.
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
		if f.Profile {
			fmt.Printf("%s: cost profiles on http://%s/debug/profile (watch with eactors top)\n", name, bound)
		}
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
