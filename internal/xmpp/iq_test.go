package xmpp_test

import (
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// iq sends a get iq with the given child and reads c's stream until its
// result arrives.
func iq(t *testing.T, c *client.Client, child string) stanza.Stanza {
	t.Helper()
	id, err := c.SendIQ(child)
	if err != nil {
		t.Fatalf("SendIQ(%s): %v", child, err)
	}
	for {
		el, err := c.ReadStanza(10 * time.Second)
		if err != nil {
			t.Fatalf("iq %s: %v", child, err)
		}
		if match, err := client.IQResult(el, id); match {
			if err != nil {
				t.Fatal(err)
			}
			return el
		}
	}
}

func TestIQPing(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1, Trusted: true})
	alice := dial(t, srv.Addr(), "alice")
	for i := 0; i < 3; i++ {
		iq(t, alice, client.PingQuery)
	}
}

func TestIQQueryOnline(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 2})
	alice := dial(t, srv.Addr(), "alice")
	bob := dial(t, srv.Addr(), "bob")
	waitFor(t, func() bool { return srv.Online().Len() == 2 }, "both online")

	if !client.WhoOnline(iq(t, alice, client.WhoQuery("bob"))) {
		t.Fatal("bob reported offline while connected")
	}
	if client.WhoOnline(iq(t, alice, client.WhoQuery("carol"))) {
		t.Fatal("carol reported online while absent")
	}

	_ = bob.Close()
	waitFor(t, func() bool { return srv.Online().Len() == 1 }, "bob offline")
	if client.WhoOnline(iq(t, alice, client.WhoQuery("bob"))) {
		t.Fatal("bob reported online after disconnect")
	}
}
