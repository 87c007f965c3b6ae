package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eactors/eactors-go/internal/xmpp"
)

// TestPingAndWho drives the iq commands through the interactive loop:
// the stream's reader goroutine must hand each iq result to the command
// waiting for it instead of dropping it.
func TestPingAndWho(t *testing.T) {
	srv, err := xmpp.Start(xmpp.Options{Shards: 1, Trusted: true})
	if err != nil {
		t.Fatalf("xmpp.Start: %v", err)
	}
	defer srv.Stop()

	var out bytes.Buffer
	stdin := strings.NewReader("/ping\n/who alice\n/who nobody\n/ping\n/quit\n")
	if err := run([]string{"-server", srv.Addr(), "-user", "alice"}, stdin, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"alice is online", "nobody is offline"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "pong in "); n != 2 {
		t.Errorf("%d pongs, want 2:\n%s", n, got)
	}
	if strings.Contains(got, "error:") || strings.Contains(got, "[connection closed]") {
		t.Errorf("command failed:\n%s", got)
	}
}
