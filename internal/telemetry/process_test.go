package telemetry

import (
	"bytes"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
)

func TestRegisterProcessMetrics(t *testing.T) {
	RegisterProcessMetrics(nil) // nil registry is a no-op

	reg := New(1)
	RegisterProcessMetrics(reg)
	RegisterProcessMetrics(reg) // idempotent: addFunc dedupes by name

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`eactors_build_info{go_version="` + runtime.Version() + `"} 1`,
		"eactors_process_uptime_seconds",
		"eactors_process_goroutines",
		"eactors_process_rss_bytes",
		"eactors_process_gc_pause_p99_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("process metrics missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE eactors_build_info"); n != 1 {
		t.Errorf("eactors_build_info registered %d times, want 1 (dedupe)", n)
	}
}

func TestProcessGauges(t *testing.T) {
	if rssBytes() == 0 {
		t.Error("rssBytes() = 0, want a nonzero resident set (or MemStats fallback)")
	}
	runtime.GC()
	// gcPauseP99Ns can legitimately be 0 before the histogram populates,
	// but must not panic and must be sane after a forced GC.
	if p99 := gcPauseP99Ns(); p99 > uint64(10*time.Minute) {
		t.Errorf("gcPauseP99Ns() = %d, implausibly large", p99)
	}
}

func TestServeWithProfile(t *testing.T) {
	reg := New(1)
	src := func() profile.Model {
		return profile.Model{V: profile.SnapshotVersion, CapturedAtNs: 7}
	}
	bound, stop, err := Serve("127.0.0.1:0", reg, WithProfile(src))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop()

	status, ctype, body := get(t, bound, "/debug/profile")
	if status != http.StatusOK {
		t.Fatalf("/debug/profile status = %d", status)
	}
	if ctype != "application/json" {
		t.Errorf("/debug/profile content-type = %q", ctype)
	}
	m, err := profile.Decode([]byte(body))
	if err != nil || m.CapturedAtNs != 7 {
		t.Fatalf("/debug/profile body %q decode = %+v, %v", body, m, err)
	}

	// Process self-metrics ride along on every handler.
	_, _, metrics := get(t, bound, "/metrics")
	if !strings.Contains(metrics, "eactors_process_goroutines") {
		t.Errorf("/metrics missing process self-metrics:\n%s", metrics)
	}
}

func TestServeWithoutProfileIs404(t *testing.T) {
	bound, stop, err := Serve("127.0.0.1:0", New(1), WithProfile(nil))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop()
	if status, _, _ := get(t, bound, "/debug/profile"); status != http.StatusNotFound {
		t.Fatalf("/debug/profile without a source: status = %d, want 404", status)
	}
}
