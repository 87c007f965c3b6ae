package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/trace"
)

// splitName separates an optional label set embedded in a registered
// metric name: "channel_sent{channel=\"read-0\"}" → base
// "channel_sent", labels "channel=\"read-0\"". Embedded labels are how
// per-channel and per-worker series share one metric family.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// series renders "base{labels,extra} " or the unlabelled equivalents.
func series(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Counters become `<name>_total`,
// gauges keep their name, histograms emit cumulative `_bucket` series
// with power-of-two `le` edges plus `_sum` and `_count`. HELP/TYPE
// headers are emitted once per family even when many labelled series
// share it.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	seen := make(map[string]bool)
	header := func(base, help, kind string) {
		if seen[base] {
			return
		}
		seen[base] = true
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
	}
	r.Each(
		func(name, help string, total uint64, gauge bool) {
			base, labels := splitName(name)
			kind := "counter"
			if gauge {
				kind = "gauge"
			} else {
				base += "_total"
			}
			header(base, help, kind)
			fmt.Fprintf(w, "%s %d\n", series(base, labels, ""), total)
		},
		func(name, help, unit string, s HistSnapshot) {
			base, labels := splitName(name)
			if unit != "" && help != "" {
				help += " (unit: " + unit + ")"
			}
			header(base, help, "histogram")
			var cum uint64
			for i, b := range s.Buckets {
				if i >= 64 {
					break
				}
				cum += b
				if b == 0 {
					continue // sparse exposition: only non-empty edges
				}
				edge := uint64(1)<<uint(i) - 1
				fmt.Fprintf(w, "%s %d\n", series(base+"_bucket", labels, fmt.Sprintf("le=%q", fmt.Sprint(edge))), cum)
			}
			fmt.Fprintf(w, "%s %d\n", series(base+"_bucket", labels, `le="+Inf"`), s.Count)
			fmt.Fprintf(w, "%s %d\n", series(base+"_sum", labels, ""), s.Sum)
			fmt.Fprintf(w, "%s %d\n", series(base+"_count", labels, ""), s.Count)
		},
	)
}

// ServeOption customises Handler and Serve.
type ServeOption func(*serveConfig)

type serveConfig struct {
	tracer  *trace.Tracer
	profile func() profile.Model
}

// WithTraces mounts /debug/traces on the handler: a snapshot of the
// tracer's sampled spans in Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. A nil tracer serves an empty trace, so
// callers can pass Server.Tracer() unconditionally.
func WithTraces(t *trace.Tracer) ServeOption {
	return func(c *serveConfig) { c.tracer = t }
}

// WithProfile mounts /debug/profile on the handler: the current
// per-actor cost-model snapshot (one profile.SnapshotVersion JSON
// line, the record eactors top -o appends). src is typically
// Runtime.CostProfile; a nil src serves 404 so callers can mount
// conditionally without branching.
func WithProfile(src func() profile.Model) ServeOption {
	return func(c *serveConfig) { c.profile = src }
}

// Handler returns an HTTP handler exposing the registry:
//
//	/metrics        Prometheus text format
//	/debug/traces   sampled causal traces, Chrome trace-event JSON
//	                (with WithTraces)
//	/debug/profile  per-actor cost-model snapshot JSON (with WithProfile)
//	/debug/pprof/*  the standard Go profiles
//
// It deliberately avoids http.DefaultServeMux so embedding applications
// keep control of their own mux.
func Handler(r *Registry, opts ...ServeOption) http.Handler {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	// Process self-metrics ride along on every handler; addFunc dedupes
	// by name, so repeated Handler calls over one registry are harmless.
	RegisterProcessMetrics(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, req *http.Request) {
		if cfg.profile == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.profile().Encode(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.tracer.WriteChrome(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves Handler(r) on it until the returned stop
// function is called. It returns the bound address (useful with ":0").
func Serve(addr string, r *Registry, opts ...ServeOption) (bound string, stop func(), err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(r, opts...), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if serveErr := srv.Serve(lis); serveErr != nil && !strings.Contains(serveErr.Error(), "closed") {
			// Best effort: the exporter must never take the service down.
			_ = serveErr
		}
	}()
	return lis.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
