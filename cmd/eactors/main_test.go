package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
)

func TestUnknownVerb(t *testing.T) {
	for _, args := range [][]string{nil, {"budget"}, {"-addr", "x"}} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "top|trace") {
			t.Errorf("run(%q) = %v, want an error listing the verbs", args, err)
		}
	}
}

// serveProfile serves model on a telemetry endpoint and returns its
// bound address.
func serveProfile(t *testing.T, model profile.Model) string {
	t.Helper()
	bound, stop, err := telemetry.Serve("127.0.0.1:0", nil,
		telemetry.WithProfile(func() profile.Model { return model }))
	if err != nil {
		t.Fatalf("telemetry.Serve: %v", err)
	}
	t.Cleanup(stop)
	return bound
}

func TestTopOnce(t *testing.T) {
	bound := serveProfile(t, profile.Model{
		V:            profile.SnapshotVersion,
		CapturedAtNs: time.Now().UnixNano(),
		Actors:       []profile.ActorCost{{Name: "frontend", Invocations: 7, MsgsSent: 7}},
	})
	// A bare host:port and the metrics URL the servers print both reach
	// the profile endpoint.
	for _, addr := range []string{bound, "http://" + bound + "/metrics"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"top", "-addr", addr, "-once"}, &stdout, &stderr); err != nil {
			t.Fatalf("top -addr %s: %v\n%s", addr, err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "frontend") {
			t.Errorf("top -addr %s frame lacks the frontend actor:\n%s", addr, stdout.String())
		}
	}
}

// TestTopOnceAppendsHistory: with -o every top run appends the snapshot
// it fetched as one JSONL record, so two runs leave two decodable lines.
func TestTopOnceAppendsHistory(t *testing.T) {
	bound := serveProfile(t, profile.Model{
		V:            profile.SnapshotVersion,
		CapturedAtNs: time.Now().UnixNano(),
		Actors:       []profile.ActorCost{{Name: "frontend", Invocations: 7}},
	})

	path := filepath.Join(t.TempDir(), "costs.jsonl")
	for i := 0; i < 2; i++ {
		var stderr bytes.Buffer
		if err := run([]string{"top", "-addr", bound, "-once", "-o", path}, &bytes.Buffer{}, &stderr); err != nil {
			t.Fatalf("top run %d: %v\n%s", i, err, stderr.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d lines, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		m, err := profile.Decode([]byte(line))
		if err != nil || len(m.Actors) != 1 || m.Actors[0].Name != "frontend" {
			t.Errorf("line %d = %+v, %v; want the served model", i, m, err)
		}
	}
}

func TestTraceOne(t *testing.T) {
	tr := trace.New(1, 0, 1)
	root := tr.NewRoot()
	now := time.Now().UnixNano()
	tr.Record(0, trace.Span{TraceID: root.TraceID, ID: tr.NextSpan(), Kind: trace.KindNetRead, Start: now, Dur: 2000})
	tr.Record(0, trace.Span{TraceID: root.TraceID, ID: tr.NextSpan(), Kind: trace.KindInvoke, Start: now + 2000, Dur: 3000})
	bound, stop, err := telemetry.Serve("127.0.0.1:0", nil, telemetry.WithTraces(tr))
	if err != nil {
		t.Fatalf("telemetry.Serve: %v", err)
	}
	defer stop()

	var stdout, stderr bytes.Buffer
	if err := run([]string{"trace", "-addr", bound, "-n", "1", "-wait", "0"}, &stdout, &stderr); err != nil {
		t.Fatalf("trace: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"1 traces sampled, showing 1", "2 hops, 5.0µs end to end"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("trace output lacks %q:\n%s", want, stdout.String())
		}
	}
}
