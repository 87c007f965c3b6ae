package xmpp_test

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// rawConn drives the CONNECTOR handshake byte by byte.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(s string) {
	r.t.Helper()
	if _, err := r.conn.Write([]byte(s)); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

// readAll reads until the deadline or EOF, returning what arrived.
func (r *rawConn) readAll(d time.Duration) string {
	var sb strings.Builder
	_ = r.conn.SetReadDeadline(time.Now().Add(d))
	buf := make([]byte, 2048)
	for {
		n, err := r.conn.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestHandshakeRejectsAuthBeforeHeader(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	c := rawDial(t, srv.Addr())
	c.send(stanza.Auth("eager", "00"))
	got := c.readAll(3 * time.Second)
	if !strings.Contains(got, "failure") {
		t.Fatalf("premature auth answered with %q, want failure", got)
	}
	if srv.Stats().AuthFailures == 0 {
		t.Fatal("auth failure not counted")
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	c := rawDial(t, srv.Addr())
	c.send("this is not xml at all")
	got := c.readAll(3 * time.Second)
	// The connection must be refused (failure + close, or plain close).
	if strings.Contains(got, "success") {
		t.Fatalf("garbage handshake succeeded: %q", got)
	}
	if srv.Online().Len() != 0 {
		t.Fatal("garbage client ended up online")
	}
}

func TestHandshakeRejectsEmptyUser(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	c := rawDial(t, srv.Addr())
	c.send(stanza.StreamHeader("", xmpp.ServiceName))
	c.send(`<auth user="" key="00"/>`)
	got := c.readAll(3 * time.Second)
	if !strings.Contains(got, "failure") {
		t.Fatalf("empty-user auth answered with %q", got)
	}
}

func TestHandshakeRejectsDoubleHeader(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	c := rawDial(t, srv.Addr())
	c.send(stanza.StreamHeader("u", xmpp.ServiceName))
	c.send(stanza.StreamHeader("u", xmpp.ServiceName))
	got := c.readAll(3 * time.Second)
	if strings.Contains(got, "success") {
		t.Fatalf("double stream header accepted: %q", got)
	}
}

func TestHandshakeStanzaBeforeAuthRejected(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	c := rawDial(t, srv.Addr())
	c.send(stanza.StreamHeader("u", xmpp.ServiceName))
	c.send(stanza.Message("u", "someone", "pre-auth message"))
	got := c.readAll(3 * time.Second)
	if !strings.Contains(got, "failure") {
		t.Fatalf("pre-auth message answered with %q", got)
	}
	if srv.Stats().Routed != 0 {
		t.Fatal("pre-auth message was routed")
	}
}

// TestAuthAndMessageInOneWrite: bytes behind the auth in one segment
// travel to the shard with the handoff, and the shard must route them
// without waiting for more traffic from the client.
func TestAuthAndMessageInOneWrite(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	bob := dial(t, srv.Addr(), "bob")
	waitFor(t, func() bool { return srv.Online().Len() == 1 }, "bob online")

	c := rawDial(t, srv.Addr())
	c.send(stanza.StreamHeader("eager", xmpp.ServiceName))
	c.send(stanza.Auth("eager", strings.Repeat("ab", 32)) + stanza.Message("eager", "bob", "piggybacked"))
	msg, err := bob.ReadMessage(5 * time.Second)
	if err != nil {
		t.Fatalf("message sent with the auth never arrived: %v", err)
	}
	if msg.From != "eager" || msg.Body != "piggybacked" {
		t.Fatalf("got %+v, want the piggybacked message from eager", msg)
	}
}

// TestPipelinedStreamKeepsOrder: a client that streams stanzas straight
// behind its auth, without waiting for the reply, must have every one
// routed in order. Bytes the CONNECTOR's READER read after the auth
// reach the shard through the CONNECTOR, later bytes through the shard's
// own READER; the shard must not read the socket until the first path
// has delivered its last byte, and the CONNECTOR must cut a full READER
// chunk to fit the sealed handoff channel. The ordering race is
// timing-dependent, so the test streams eight sessions; when the shard
// watched at once, about one session in 25 arrived reordered or cut.
func TestPipelinedStreamKeepsOrder(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1, Trusted: true})
	bob := dial(t, srv.Addr(), "bob")
	waitFor(t, func() bool { return srv.Online().Len() == 1 }, "bob online")

	const sessions, burst, total = 8, 60, 1500
	pad := strings.Repeat("x", 1000)
	body := func(i int) string { return fmt.Sprintf("m%04d", i) + pad }
	for s := 0; s < sessions; s++ {
		user := fmt.Sprintf("eager%d", s)
		c := rawDial(t, srv.Addr())
		first := stanza.StreamHeader(user, xmpp.ServiceName) + stanza.Auth(user, strings.Repeat("ab", 32))
		for i := 0; i < burst; i++ {
			first += stanza.Message(user, "bob", body(i))
		}
		c.send(first)
		go func() {
			for i := burst; i < total; i++ {
				if _, err := c.conn.Write([]byte(stanza.Message(user, "bob", body(i)))); err != nil {
					return // the reads below report what went missing
				}
			}
		}()
		for i := 0; i < total; i++ {
			msg, err := bob.ReadMessage(5 * time.Second)
			if err != nil {
				t.Fatalf("%s: message %d never arrived: %v", user, i, err)
			}
			if msg.From != user || msg.Body != body(i) {
				t.Fatalf("%s: message %d arrived as %.5q from %s: the stream was reordered", user, i, msg.Body, msg.From)
			}
		}
	}
}

// TestOversizedStanzaDisconnects: a client streaming an endless stanza
// must be cut off at the scanner's size guard, not buffered forever.
func TestOversizedStanzaDisconnects(t *testing.T) {
	srv := startServer(t, xmpp.Options{Shards: 1})
	alice := dial(t, srv.Addr(), "alice")
	waitFor(t, func() bool { return srv.Online().Len() == 1 }, "alice online")

	// An unterminated <message> far beyond MaxStanzaBytes.
	if err := alice.SendRaw(`<message to="bob"><body>`); err != nil {
		t.Fatal(err)
	}
	chunk := strings.Repeat("A", 8192)
	for i := 0; i < 10; i++ { // 80 KiB > 64 KiB limit
		if err := alice.SendRaw(chunk); err != nil {
			return // already cut off: pass
		}
	}
	waitFor(t, func() bool { return srv.Online().Len() == 0 }, "oversized client disconnected")
}
