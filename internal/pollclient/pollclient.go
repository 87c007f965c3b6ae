// Package pollclient is the small HTTP-polling helper shared by the
// observability CLI (eactors top and trace): base-URL normalisation
// and a bounded GET.
package pollclient

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// URL normalises addr into a full endpoint URL: it keeps addr's scheme
// (http:// for a bare host:port) and host, and replaces whatever path
// addr names (such as the /metrics URL the servers print) with path
// (e.g. "/debug/profile").
func URL(addr, path string) string {
	scheme, rest, ok := strings.Cut(addr, "://")
	if !ok {
		scheme, rest = "http", addr
	}
	host, _, _ := strings.Cut(rest, "/")
	return scheme + "://" + host + path
}

// Get fetches url with a 5-second budget and returns the body; a
// non-200 status is an error carrying the status line.
func Get(url string) ([]byte, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}
