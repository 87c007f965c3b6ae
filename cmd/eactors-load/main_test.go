package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/xmpp"
)

func TestUnknownVerb(t *testing.T) {
	for _, args := range [][]string{nil, {"kvload"}, {"-server", "x"}} {
		err := run(args, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "kv, xmpp or idle") {
			t.Errorf("run(%q) = %v, want an error listing the verbs", args, err)
		}
	}
}

// TestJSONContract pins the -json object of each measuring verb: stdout
// holds exactly one JSON object with the key set and tool name the
// retired kvload and xmppload commands printed.
func TestJSONContract(t *testing.T) {
	kvSrv, err := kv.Start(kv.Options{Shards: 1})
	if err != nil {
		t.Fatalf("kv.Start: %v", err)
	}
	defer kvSrv.Stop()
	xmppSrv, err := xmpp.Start(xmpp.Options{Shards: 1})
	if err != nil {
		t.Fatalf("xmpp.Start: %v", err)
	}
	defer xmppSrv.Stop()

	common := []string{"clients", "duration_ns", "errors", "ops", "ops_per_sec", "p50_ns", "p95_ns", "p99_ns", "tool"}
	for _, tc := range []struct {
		verb, addr, tool string
		extra            []string
	}{
		{"kv", kvSrv.Addr(), "kvload", []string{"depth"}},
		{"xmpp", xmppSrv.Addr(), "xmppload", []string{"mode"}},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{tc.verb, "-server", tc.addr, "-clients", "2", "-warmup", "0", "-duration", "200ms", "-json"}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", tc.verb, err, stderr.String())
		}
		dec := json.NewDecoder(&stdout)
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("%s: stdout is not a JSON object: %v", tc.verb, err)
		}
		if dec.More() {
			t.Errorf("%s: stdout holds more than one JSON value", tc.verb)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		want := append(slices.Clone(common), tc.extra...)
		slices.Sort(keys)
		slices.Sort(want)
		if !slices.Equal(keys, want) {
			t.Errorf("%s: keys %v, want %v", tc.verb, keys, want)
		}
		if obj["tool"] != tc.tool {
			t.Errorf("%s: tool = %v, want %q", tc.verb, obj["tool"], tc.tool)
		}
		if ops, _ := obj["ops"].(float64); ops == 0 {
			t.Errorf("%s: no operations measured: %v", tc.verb, obj)
		}
	}
}
