package baseline

import (
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp/client"
)

func startBaseline(t *testing.T, opts Options) *Server {
	t.Helper()
	// Tests exercise protocol logic, not the modeled performance, so
	// shrink the work factors.
	if opts.WorkScale == 0 {
		opts.WorkScale = 0.01
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Stop)
	return s
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

func TestStartUnknownKind(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func testOneToOne(t *testing.T, kind Kind, ssl bool) {
	srv := startBaseline(t, Options{Kind: kind, SSL: ssl})
	alice := dial(t, srv.Addr(), "alice")
	bob := dial(t, srv.Addr(), "bob")

	if err := alice.SendMessage("bob", "hello"); err != nil {
		t.Fatal(err)
	}
	msg, err := bob.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if msg.From != "alice" || msg.Body != "hello" {
		t.Fatalf("got %+v", msg)
	}
	if err := bob.SendMessage("alice", "hey"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadMessage(10 * time.Second); err != nil {
		t.Fatalf("reply: %v", err)
	}
	// The server counts a message as routed after writing it, so the
	// reader can get here first: poll the counter to a deadline.
	deadline := time.Now().Add(5 * time.Second)
	st := srv.Stats()
	for st.Routed < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Connections != 2 || st.Routed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJabberD2OneToOne(t *testing.T) { testOneToOne(t, JabberD2Kind, false) }
func TestEjabberdOneToOne(t *testing.T) { testOneToOne(t, EjabberdKind, false) }
func TestJabberD2SSL(t *testing.T)      { testOneToOne(t, JabberD2Kind, true) }

func testGroupChat(t *testing.T, kind Kind) {
	srv := startBaseline(t, Options{Kind: kind})
	a := dial(t, srv.Addr(), "a")
	b := dial(t, srv.Addr(), "b")
	c := dial(t, srv.Addr(), "c")
	for _, u := range []*client.Client{a, b, c} {
		if err := u.JoinRoom("room"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := a.SendGroupMessage("room", "hi all"); err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*client.Client{"b": b, "c": c} {
		msg, err := u.ReadMessage(10 * time.Second)
		if err != nil {
			t.Fatalf("%s ReadMessage: %v", name, err)
		}
		if !msg.Group || msg.Body != "hi all" || msg.From != "a" {
			t.Fatalf("%s got %+v", name, msg)
		}
	}
	// The fan-out is counted after each copy is written, so the last
	// reader can get here first: poll the counter to a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().GroupFanout < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Stats().GroupFanout != 2 {
		t.Fatalf("fanout = %d", srv.Stats().GroupFanout)
	}
}

func TestJabberD2GroupChat(t *testing.T) { testGroupChat(t, JabberD2Kind) }
func TestEjabberdGroupChat(t *testing.T) { testGroupChat(t, EjabberdKind) }

func TestSpoofRestamped(t *testing.T) {
	srv := startBaseline(t, Options{Kind: EjabberdKind})
	mallory := dial(t, srv.Addr(), "mallory")
	bob := dial(t, srv.Addr(), "bob")
	raw := `<message from="alice" to="bob" type="chat"><body>spoof</body></message>`
	if err := mallory.SendRaw(raw); err != nil {
		t.Fatal(err)
	}
	msg, err := bob.ReadMessage(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "mallory" {
		t.Fatalf("spoofed from = %q", msg.From)
	}
}

func TestOfflineTargetDropped(t *testing.T) {
	srv := startBaseline(t, Options{Kind: JabberD2Kind})
	a := dial(t, srv.Addr(), "a")
	if err := a.SendMessage("nobody", "x"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if srv.Stats().Routed != 0 {
		t.Fatal("offline message routed")
	}
}

func TestStopIsIdempotentAndUnblocks(t *testing.T) {
	srv := startBaseline(t, Options{Kind: JabberD2Kind})
	_ = dial(t, srv.Addr(), "lingering")
	done := make(chan struct{})
	go func() {
		srv.Stop()
		srv.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not complete with open connections")
	}
}

// Stats mirrors the EActors service counters.
type Stats struct {
	Connections  uint64
	Routed       uint64
	GroupFanout  uint64
	AuthFailures uint64
}

// Stats returns a counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Connections:  s.conns.Load(),
		Routed:       s.routedN.Load(),
		GroupFanout:  s.fanout.Load(),
		AuthFailures: s.authFail.Load(),
	}
}
