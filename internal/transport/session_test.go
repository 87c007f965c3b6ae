package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveOne accepts one connection and runs Serve on it; the returned
// cleanup joins the goroutine (leakcheck demands orderly unwind).
func serveOne(t *testing.T, handler Handler, opts ServeOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = Serve(conn, handler, opts) //nolint — peers hang up mid-test
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func echoHandler(f Frame) (Frame, bool) {
	return Frame{Type: TResponse, Payload: f.Payload}, true
}

func TestSessionEchoConcurrent(t *testing.T) {
	addr := serveOne(t, echoHandler, ServeOptions{Features: FeatureKV})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{Features: FeatureKV})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.PeerFeatures() != FeatureKV {
		t.Fatalf("granted features = %#x", s.PeerFeatures())
	}
	if s.Window().Limit() != DefaultWindow {
		t.Fatalf("advertised window = %d", s.Window().Limit())
	}
	const goroutines, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				resp, err := s.Call(TRequest, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- fmt.Errorf("echo %q != %q", resp.Payload, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Issued != goroutines*calls || st.Completed != goroutines*calls {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxInFlightBytes > st.WindowLimit {
		t.Fatalf("flow-control invariant broken: %d in flight > %d window", st.MaxInFlightBytes, st.WindowLimit)
	}
}

// TestSessionOutOfOrderResponses pins the multiplexing contract: a
// server answering in reverse order must still complete every call with
// its own response, correlated by opaque.
func TestSessionOutOfOrderResponses(t *testing.T) {
	const batch = 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var sc Scanner
		buf := make([]byte, 64<<10)
		hello, err := readFrame(conn, &sc, buf)
		if err != nil || hello.Type != THello {
			return
		}
		ack, _ := AppendFrame(nil, HelloAck(hello.Opaque, DefaultWindow))
		if _, err := conn.Write(ack); err != nil {
			return
		}
		var reqs []Frame
		for len(reqs) < batch {
			f, err := readFrame(conn, &sc, buf)
			if err != nil {
				return
			}
			if f.Type == TRequest {
				f.Payload = append([]byte(nil), f.Payload...)
				reqs = append(reqs, f)
			}
		}
		for i := len(reqs) - 1; i >= 0; i-- { // reverse order, deliberately
			resp, _ := AppendFrame(nil, Frame{Type: TResponse, Opaque: reqs[i].Opaque, Payload: reqs[i].Payload})
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
		// Hold the conn until the client hangs up, else its session
		// errors mid-Wait.
		_, _ = conn.Read(buf)
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{Features: FeatureKV})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	calls := make([]*Call, batch)
	for i := range calls {
		if calls[i], err = s.Issue(TRequest, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range calls {
		resp, err := s.Wait(c)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != byte('a'+i) {
			t.Fatalf("call %d got %q", i, resp.Payload)
		}
	}
}

// Legacy peers: each legacy server behaviour — immediate close on the
// unknown opcode, garbage bytes, and silence — must map to
// ErrLegacyPeer, so a dial fails fast instead of half-working.
func TestConnectLegacyPeer(t *testing.T) {
	cases := []struct {
		name    string
		behave  func(conn net.Conn)
		timeout time.Duration
	}{
		{"close-on-unknown-opcode", func(conn net.Conn) {
			buf := make([]byte, 64)
			_, _ = conn.Read(buf) // legacy server reads the "request"...
			_ = conn.Close()      // ...rejects opcode 0xE1, drops the conn
		}, 0},
		{"garbage-bytes", func(conn net.Conn) {
			_, _ = conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			buf := make([]byte, 64)
			_, _ = conn.Read(buf)
			_ = conn.Close()
		}, 0},
		{"silence", func(conn net.Conn) {
			buf := make([]byte, 64)
			_, _ = conn.Read(buf) // reads the hello, never answers
			_, _ = conn.Read(buf) // parks until the client gives up
			_ = conn.Close()
		}, 150 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				tc.behave(conn)
			}()
			t.Cleanup(func() { _ = ln.Close(); <-done })
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			_, err = Connect(conn, SessionOptions{Features: FeatureKV, HandshakeTimeout: tc.timeout})
			if !errors.Is(err, ErrLegacyPeer) {
				t.Fatalf("Connect err = %v, want ErrLegacyPeer", err)
			}
		})
	}
}

// TestServeExactlyOnceOnResend drives Serve with a hand-rolled client
// that retransmits: the handler must run once per opaque and the
// replayed response must be byte-identical.
func TestServeExactlyOnceOnResend(t *testing.T) {
	var execs atomic.Int32
	handler := func(f Frame) (Frame, bool) {
		execs.Add(1)
		return Frame{Type: TResponse, Payload: append([]byte("done:"), f.Payload...)}, true
	}
	addr := serveOne(t, handler, ServeOptions{Features: FeatureKV, ReplayWindow: 8})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sc Scanner
	buf := make([]byte, 64<<10)
	hello, _ := Hello(FeatureKV, DefaultWindow)
	hb, _ := AppendFrame(nil, hello)
	if _, err := conn.Write(hb); err != nil {
		t.Fatal(err)
	}
	if ack, err := readFrame(conn, &sc, buf); err != nil || ack.Type != THelloAck {
		t.Fatalf("handshake: %v %v", ack.Type, err)
	}
	req, _ := AppendFrame(nil, Frame{Type: TRequest, Opaque: 1, Payload: []byte("x")})
	var responses [][]byte
	for i := 0; i < 3; i++ { // original + two at-least-once resends
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn, &sc, buf)
		if err != nil || resp.Type != TResponse || resp.Opaque != 1 {
			t.Fatalf("resend %d: %+v %v", i, resp, err)
		}
		responses = append(responses, append([]byte(nil), resp.Payload...))
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler ran %d times for one opaque", n)
	}
	for _, r := range responses[1:] {
		if !bytes.Equal(r, responses[0]) {
			t.Fatalf("replayed response diverged: %q != %q", r, responses[0])
		}
	}
	if string(responses[0]) != "done:x" {
		t.Fatalf("response = %q", responses[0])
	}
}

// TestServeRejectsAncientOpaque: an opaque behind the replay window is
// a client tag-discipline violation; the only safe answer is GOAWAY.
func TestServeRejectsAncientOpaque(t *testing.T) {
	addr := serveOne(t, echoHandler, ServeOptions{Features: FeatureKV, ReplayWindow: 4})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sc Scanner
	buf := make([]byte, 64<<10)
	hello, _ := Hello(FeatureKV, DefaultWindow)
	hb, _ := AppendFrame(nil, hello)
	if _, err := conn.Write(hb); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn, &sc, buf); err != nil {
		t.Fatal(err)
	}
	for op := uint32(100); op < 105; op++ {
		req, _ := AppendFrame(nil, Frame{Type: TRequest, Opaque: op, Payload: []byte("k")})
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if resp, err := readFrame(conn, &sc, buf); err != nil || resp.Type != TResponse {
			t.Fatalf("opaque %d: %v %v", op, resp.Type, err)
		}
	}
	req, _ := AppendFrame(nil, Frame{Type: TRequest, Opaque: 90, Payload: []byte("k")})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, &sc, buf)
	if err != nil || resp.Type != TGoAway {
		t.Fatalf("ancient opaque answered with %v %v, want goaway", resp.Type, err)
	}
}

// TestSessionGoAway: a server-initiated GOAWAY must poison the session
// and error every pending and future call.
func TestSessionGoAway(t *testing.T) {
	handler := func(f Frame) (Frame, bool) {
		return Frame{Payload: []byte("refused")}, false
	}
	addr := serveOne(t, handler, ServeOptions{Features: FeatureKV})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{Features: FeatureKV, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Call(TRequest, []byte("x")); err == nil {
		t.Fatal("call on a refused session succeeded")
	}
	if _, err := s.Issue(TRequest, []byte("y")); err == nil {
		t.Fatal("issue after goaway succeeded")
	}
}

// Done delivers one token when the response (or a terminal error)
// arrived. Receive it once, then read Response; a caller that collects
// the outcome this way must not also Wait.
func (c *Call) Done() <-chan struct{} { return c.done }

// Response returns the outcome; call only after receiving from Done.
func (c *Call) Response() (Frame, error) { return c.resp, c.err }

// Window returns the sender-side flow-control window (peer-advertised).
func (s *Session) Window() *Window { return s.window }
