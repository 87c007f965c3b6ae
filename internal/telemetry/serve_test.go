package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/trace"
)

// get fetches a path from the bound exporter and returns status,
// content-type and body.
func get(t *testing.T, bound, path string) (int, string, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + bound + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServe(t *testing.T) {
	reg := New(2)
	c := reg.Counter("test_requests", "requests served")
	c.Inc(0)
	c.Inc(1)

	bound, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	status, ctype, body := get(t, bound, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("/metrics content-type = %q, want %q", ctype, want)
	}
	if !strings.Contains(body, "test_requests_total 2") {
		t.Errorf("/metrics missing counter, body:\n%s", body)
	}

	status, _, body = get(t, bound, "/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles, body:\n%.200s", body)
	}

	// Clean shutdown: stop returns only after the server is down, so the
	// port must refuse new connections afterwards.
	stop()
	client := &http.Client{Timeout: time.Second}
	if resp, err := client.Get("http://" + bound + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatalf("exporter still serving after stop()")
	}
}

func TestServeWithTraces(t *testing.T) {
	tr := trace.New(1, 64, 1)
	ctx := tr.NewRoot()
	tr.Record(0, trace.Span{TraceID: ctx.TraceID, ID: tr.NextSpan(), Kind: trace.KindInvoke, Start: 1000, Dur: 500})

	bound, stop, err := Serve("127.0.0.1:0", nil, WithTraces(tr))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop()

	status, ctype, body := get(t, bound, "/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", status)
	}
	if ctype != "application/json" {
		t.Errorf("/debug/traces content-type = %q", ctype)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Trace uint64 `json:"trace"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v\n%s", err, body)
	}
	if len(parsed.TraceEvents) != 1 || parsed.TraceEvents[0].Args.Trace != ctx.TraceID {
		t.Fatalf("unexpected trace events: %s", body)
	}
}
