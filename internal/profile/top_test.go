package profile

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFetchDecodesEndpoint(t *testing.T) {
	want := sampleModel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/profile" {
			http.NotFound(w, req)
			return
		}
		want.Encode(w)
	}))
	defer srv.Close()

	// All three addr spellings must resolve to the endpoint.
	for _, addr := range []string{
		srv.URL,
		strings.TrimPrefix(srv.URL, "http://"), // bare host:port
		srv.URL + "/debug/profile",
	} {
		m, raw, err := Fetch(addr)
		if err != nil {
			t.Fatalf("Fetch(%q): %v", addr, err)
		}
		if len(m.Actors) != 2 || m.Actors[0].Name != "frontend" {
			t.Fatalf("Fetch(%q) = %+v, want the sample model", addr, m)
		}
		if len(raw) == 0 {
			t.Fatalf("Fetch(%q) returned no raw body", addr)
		}
	}
}

func TestFetchErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer srv.Close()
	if _, _, err := Fetch(srv.URL); err == nil {
		t.Fatal("Fetch of a 404 endpoint must fail")
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"v":99}`))
	}))
	defer bad.Close()
	if _, _, err := Fetch(bad.URL); err == nil {
		t.Fatal("Fetch of an unknown-version snapshot must fail")
	}
}

func TestRenderTopTotals(t *testing.T) {
	var buf bytes.Buffer
	RenderTop(&buf, Model{}, sampleModel(), 0)
	out := buf.String()
	for _, want := range []string{
		"totals since start",
		"ACTOR", "ENCLAVE", // table header
		"frontend", "kvstore-0", "kv-0",
		"hottest edges",
		"frontend -> kvstore-0", "(req-0)", "5 msgs",
		"enclaves",
		"crossings +14",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("totals render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTopRates(t *testing.T) {
	prev := sampleModel()
	cur := sampleModel()
	cur.CapturedAtNs = prev.CapturedAtNs + 2e9 // 2s window
	cur.Actors[0].MsgsSent += 20               // frontend: 10 msg/s
	cur.Actors[1].InvokeNs += 1e9              // kvstore: 50% CPU
	cur.Edges[0].Msgs += 20
	var buf bytes.Buffer
	RenderTop(&buf, prev, cur, 1) // rows=1 keeps only the hottest actor
	out := buf.String()
	if !strings.Contains(out, "window 2.0s") {
		t.Fatalf("rates render missing window line:\n%s", out)
	}
	if !strings.Contains(out, "kvstore-0") || strings.Contains(out, "frontend -> ") == false {
		t.Fatalf("rates render missing hottest actor or edge:\n%s", out)
	}
	// rows=1 and kvstore-0 burned the most ns, so frontend's actor row
	// is clipped from the table (it still appears in the edge list).
	if strings.Contains(strings.SplitN(out, "hottest edges", 2)[0], "frontend") {
		t.Fatalf("rows bound not applied:\n%s", out)
	}
	if !strings.Contains(out, "50.0") {
		t.Fatalf("CPU%% column missing 50.0 for kvstore-0:\n%s", out)
	}
	if !strings.Contains(out, "10 msg/s") {
		t.Fatalf("edge rate missing 10 msg/s:\n%s", out)
	}
}

func TestRenderTopRestartTolerant(t *testing.T) {
	prev := sampleModel()
	cur := sampleModel()
	cur.CapturedAtNs = prev.CapturedAtNs + 1e9
	cur.Actors[0].Invocations = 2 // server restarted: totals went backwards
	var buf bytes.Buffer
	RenderTop(&buf, prev, cur, 0) // must not underflow/panic
	if !strings.Contains(buf.String(), "frontend") {
		t.Fatal("restart-tolerant render dropped the actor table")
	}
}

func TestClipAndFmtNs(t *testing.T) {
	if got := clip("short", 18); got != "short" {
		t.Errorf("clip(short) = %q", got)
	}
	if got := clip("a-very-long-actor-name-indeed", 10); len(got) != len("a-very-lo…") {
		t.Errorf("clip long = %q", got)
	}
	for _, tc := range []struct {
		ns   uint64
		want string
	}{
		{500, "500ns"}, {1500, "1.5µs"}, {2_500_000, "2.5ms"}, {3_000_000_000, "3.00s"},
	} {
		if got := fmtNs(tc.ns); got != tc.want {
			t.Errorf("fmtNs(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
