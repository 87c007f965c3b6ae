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

// URL normalises addr into a full endpoint URL: a bare host:port gains
// the http:// scheme, and path (e.g. "/debug/profile") is appended
// unless addr already names it.
func URL(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if strings.Contains(addr, path) {
		return addr
	}
	return strings.TrimSuffix(addr, "/") + path
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
