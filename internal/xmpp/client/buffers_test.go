package client

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/testutil/allocs"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// loopback returns a client for user alice on one end of a loopback TCP
// connection, and the other end.
func loopback(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := lis.Accept()
		accepted <- conn
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		_ = conn.Close()
		_ = peer.Close()
	})
	return &Client{conn: conn, user: "alice", readBuf: make([]byte, 4096)}, peer
}

// TestSendMessageAllocatesNothing: SendMessage builds the stanza in the
// client's reused buffer.
func TestSendMessageAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	c, peer := loopback(t)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	body := strings.Repeat("b", 150)
	send := func() {
		if err := c.SendMessage("bob", body); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Errorf("SendMessage allocates %v times per message, want 0", n)
	}
}

// TestReadMessageAllocatesOnce: reading a chat message without XML
// escapes costs one allocation, the copy its fields are sliced from.
func TestReadMessageAllocatesOnce(t *testing.T) {
	allocs.SkipUnderRace(t)
	c, peer := loopback(t)
	const runs = 1000
	body := strings.Repeat("b", 150)
	msg := stanza.Message("bob", "alice", body)
	go func() {
		// Two more than AllocsPerRun reads: its warm-up run and ours.
		_, _ = peer.Write([]byte(strings.Repeat(msg, runs+2)))
	}()
	read := func() {
		m, err := c.ReadMessage(5 * time.Second)
		if err != nil || m.From != "bob" || m.To != "alice" || m.Body != body || m.Group {
			t.Fatalf("ReadMessage = %+v, %v", m, err)
		}
	}
	read()
	if n := testing.AllocsPerRun(runs, read); n > 1 {
		t.Errorf("ReadMessage allocates %v times per message, want at most 1", n)
	}
}

// TestReadStanzaIsDetached: a stanza ReadStanza returned survives the
// reads after it, which reuse the scanner's buffer.
func TestReadStanzaIsDetached(t *testing.T) {
	c, peer := loopback(t)
	if _, err := peer.Write([]byte(stanza.Message("bob", "alice", "first"))); err != nil {
		t.Fatal(err)
	}
	first, err := c.ReadStanza(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The second stanza arrives in a later read, into the same buffer.
	if _, err := peer.Write([]byte(stanza.Message("carol", "alice", "second"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadStanza(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := c.Decode(first)
	if err != nil || m.From != "bob" || m.Body != "first" {
		t.Fatalf("first stanza after a second read: %+v, %v (%s)", m, err, first.Raw)
	}
}

// TestSendMessageConcurrentSenders: senders sharing a client take turns
// with its write buffer, so every stanza reaches the peer whole.
func TestSendMessageConcurrentSenders(t *testing.T) {
	c, peer := loopback(t)
	const senders, each = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		body := strings.Repeat(string(rune('a'+s)), 100+s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if c.SendMessage("bob", body) != nil {
					return // the reader below reports the missing stanzas
				}
			}
		}()
	}
	var sc stanza.Scanner
	buf := make([]byte, 4096)
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got := 0; got < senders*each; {
		st, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("stanza %d: %v", got, err)
		}
		if !ok {
			n, err := peer.Read(buf)
			if err != nil {
				t.Fatalf("after %d stanzas: %v", got, err)
			}
			sc.Feed(buf[:n])
			continue
		}
		body := st.Body()
		if len(body) < 100 || body != strings.Repeat(body[:1], len(body)) || !st.AttrIs("from", "alice") {
			t.Fatalf("stanza %d torn: %s", got, st.Raw)
		}
		got++
	}
	wg.Wait()
}
