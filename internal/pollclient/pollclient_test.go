package pollclient

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestURL(t *testing.T) {
	for _, tc := range []struct{ addr, path, want string }{
		{"127.0.0.1:9090", "/debug/profile", "http://127.0.0.1:9090/debug/profile"},
		{"http://host:1/", "/debug/profile", "http://host:1/debug/profile"},
		{"http://host:1/debug/profile", "/debug/profile", "http://host:1/debug/profile"},
		{"http://host:1/metrics", "/debug/profile", "http://host:1/debug/profile"},
		{"https://host", "/debug/traces", "https://host/debug/traces"},
	} {
		if got := URL(tc.addr, tc.path); got != tc.want {
			t.Errorf("URL(%q, %q) = %q, want %q", tc.addr, tc.path, got, tc.want)
		}
	}
}

func TestGet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/ok" {
			w.Write([]byte("body"))
			return
		}
		http.NotFound(w, req)
	}))
	defer srv.Close()

	body, err := Get(srv.URL + "/ok")
	if err != nil || string(body) != "body" {
		t.Fatalf("Get = %q, %v", body, err)
	}
	if _, err := Get(srv.URL + "/missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Get(404) error = %v, want status in error", err)
	}
	if _, err := Get("http://127.0.0.1:1/unreachable"); err == nil {
		t.Fatal("Get(unreachable) must fail")
	}
}
