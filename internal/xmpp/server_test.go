package xmpp_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
)

func startServer(t *testing.T, opts xmpp.Options) *xmpp.Server {
	t.Helper()
	if opts.Platform == nil {
		opts.Platform = sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel()))
	}
	srv, err := xmpp.Start(opts)
	if err != nil {
		t.Fatalf("xmpp.Start: %v", err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func dial(t *testing.T, addr, user string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, user, 10*time.Second)
	if err != nil {
		t.Fatalf("Dial(%s): %v", user, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestOneToOneUntrusted(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	testOneToOne(t, srv)
}

func TestOneToOneTrusted(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1, Trusted: true})
	testOneToOne(t, srv)
}

func TestOneToOneMultiShardMultiEnclave(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 4, Trusted: true, EnclaveCount: 4})
	testOneToOne(t, srv)
}

func testOneToOne(t *testing.T, srv *xmpp.Server) {
	t.Helper()
	alice := dial(t, srv.Addr(), "alice")
	bob := dial(t, srv.Addr(), "bob")

	if err := alice.SendMessage("bob", "hello bob"); err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	msg, err := bob.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatalf("bob ReadMessage: %v", err)
	}
	if msg.From != "alice" || msg.Body != "hello bob" || msg.Group {
		t.Fatalf("bob got %+v", msg)
	}

	if err := bob.SendMessage("alice", "hi alice"); err != nil {
		t.Fatalf("reply: %v", err)
	}
	msg, err = alice.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatalf("alice ReadMessage: %v", err)
	}
	if msg.From != "bob" || msg.Body != "hi alice" {
		t.Fatalf("alice got %+v", msg)
	}

	stats := srv.Stats()
	if stats.Connections != 2 {
		t.Fatalf("Connections = %d, want 2", stats.Connections)
	}
	if stats.Routed != 2 {
		t.Fatalf("Routed = %d, want 2", stats.Routed)
	}
}

// TestOneToOneEscapedNames: user names holding XML specials travel
// escaped; the shard routes on the unescaped name and forwards the
// sender's own stanza.
func TestOneToOneEscapedNames(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1, Trusted: true})
	from, to := "a&b", `o'c<"`
	sender := dial(t, srv.Addr(), from)
	recipient := dial(t, srv.Addr(), to)
	if err := sender.SendMessage(to, "x < y & z"); err != nil {
		t.Fatal(err)
	}
	msg, err := recipient.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if msg.From != from || msg.To != to || msg.Body != "x < y & z" {
		t.Fatalf("got %+v", msg)
	}
}

func TestMessageToOfflineUserDropped(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	alice := dial(t, srv.Addr(), "alice")
	if err := alice.SendMessage("ghost", "anyone there?"); err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	// No crash, no routing: give the server a moment, then check.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Routed != 0 {
			t.Fatal("message to offline user was routed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSenderIdentityPinned(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	mallory := dial(t, srv.Addr(), "mallory")
	bob := dial(t, srv.Addr(), "bob")

	// Mallory crafts a stanza claiming to be alice; the service must
	// re-stamp the authenticated identity.
	if err := mallory.SendMessage("bob", "ignored"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ReadMessage(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	raw := `<message from="alice" to="bob" type="chat"><body>spoofed</body></message>`
	if err := mallory.SendRaw(raw); err != nil {
		t.Fatal(err)
	}
	msg, err := bob.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if msg.From != "mallory" {
		t.Fatalf("spoofed sender delivered as %q, want mallory", msg.From)
	}
}

func TestGroupChat(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1, Trusted: true})
	users := []*client.Client{
		dial(t, srv.Addr(), "u0"),
		dial(t, srv.Addr(), "u1"),
		dial(t, srv.Addr(), "u2"),
	}
	for _, u := range users {
		if err := u.JoinRoom("room1"); err != nil {
			t.Fatalf("JoinRoom: %v", err)
		}
	}
	// Joins are asynchronous; wait until the sender's fan-out reaches
	// both receivers.
	time.Sleep(200 * time.Millisecond)

	if err := users[0].SendGroupMessage("room1", "hello room"); err != nil {
		t.Fatalf("SendGroupMessage: %v", err)
	}
	for i := 1; i <= 2; i++ {
		msg, err := users[i].ReadMessage(10 * time.Second)
		if err != nil {
			t.Fatalf("u%d ReadMessage: %v", i, err)
		}
		if !msg.Group || msg.From != "u0" || msg.Body != "hello room" {
			t.Fatalf("u%d got %+v", i, msg)
		}
	}
	if got := srv.Stats().GroupFanout; got != 2 {
		t.Fatalf("GroupFanout = %d, want 2", got)
	}
}

func TestGroupLeave(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	a := dial(t, srv.Addr(), "a")
	b := dial(t, srv.Addr(), "b")
	c := dial(t, srv.Addr(), "c")
	for _, u := range []*client.Client{a, b, c} {
		if err := u.JoinRoom("r"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := c.LeaveRoom("r"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	if err := a.SendGroupMessage("r", "after leave"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadMessage(10 * time.Second); err != nil {
		t.Fatalf("b should receive: %v", err)
	}
	if _, err := c.ReadMessage(500 * time.Millisecond); err == nil {
		t.Fatal("c received a message after leaving")
	}
}

func TestManyClientsAcrossShards(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 4, Trusted: true, EnclaveCount: 2})
	const pairs = 8
	senders := make([]*client.Client, pairs)
	receivers := make([]*client.Client, pairs)
	for i := 0; i < pairs; i++ {
		senders[i] = dial(t, srv.Addr(), fmt.Sprintf("s%d", i))
		receivers[i] = dial(t, srv.Addr(), fmt.Sprintf("r%d", i))
	}
	for i := 0; i < pairs; i++ {
		if err := senders[i].SendMessage(fmt.Sprintf("r%d", i), fmt.Sprintf("msg-%d", i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < pairs; i++ {
		msg, err := receivers[i].ReadMessage(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if msg.Body != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("recv %d got %+v", i, msg)
		}
	}
	if got := srv.Online().Len(); got != 2*pairs {
		t.Fatalf("online = %d, want %d", got, 2*pairs)
	}
}

func TestDisconnectRemovesFromOnlineList(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	a := dial(t, srv.Addr(), "transient")
	waitFor(t, func() bool { return srv.Online().Len() == 1 }, "user online")
	_ = a.Close()
	waitFor(t, func() bool { return srv.Online().Len() == 0 }, "user removed after close")
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
