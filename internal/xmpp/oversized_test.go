package xmpp_test

import (
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp"
)

// TestOversizedStanzaDoesNotWedgeShard: a chat stanza larger than one
// channel node can never reach the WRITER. The shard drops it, and the
// messages behind it are still delivered.
func TestOversizedStanzaDoesNotWedgeShard(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	alice := dial(t, srv.Addr(), "alice")
	bob := dial(t, srv.Addr(), "bob")
	if err := alice.SendMessage("bob", strings.Repeat("x", 6000)); err != nil {
		t.Fatal(err)
	}
	if err := alice.SendMessage("bob", "after"); err != nil {
		t.Fatal(err)
	}
	msg, err := bob.ReadMessage(5 * time.Second)
	if err != nil {
		t.Fatalf("message behind the oversized one: %v (shard wedged)", err)
	}
	if msg.Body != "after" {
		t.Fatalf("bob read %q, want %q", msg.Body, "after")
	}
}
