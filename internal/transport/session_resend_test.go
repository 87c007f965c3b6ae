package transport

import (
	"errors"
	"net"
	"testing"
	"time"
)

// handshakeServer accepts one connection, answers the HELLO, then hands
// the conn to behave. Cleanup joins the goroutine.
func handshakeServer(t *testing.T, behave func(conn net.Conn, sc *Scanner, buf []byte)) string {
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
		behave(conn, &sc, buf)
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return ln.Addr().String()
}

// TestSessionResendUntilAnswered: a lost request is retransmitted on the
// resend interval until the peer answers — the at-least-once half of the
// exactly-once contract (the peer's replay window is the other half).
func TestSessionResendUntilAnswered(t *testing.T) {
	addr := handshakeServer(t, func(conn net.Conn, sc *Scanner, buf []byte) {
		seen := 0
		for {
			f, err := readFrame(conn, sc, buf)
			if err != nil {
				return
			}
			if f.Type != TRequest {
				continue
			}
			seen++
			if seen < 2 {
				continue // "lose" the original; only the resend is answered
			}
			resp, _ := AppendFrame(nil, Frame{Type: TResponse, Opaque: f.Opaque, Payload: []byte("late")})
			if _, err := conn.Write(resp); err != nil {
				return
			}
			_, _ = conn.Read(buf) // park until the client hangs up
			return
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{
		Features:       FeatureKV,
		CallTimeout:    5 * time.Second,
		ResendInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := s.Call(TRequest, []byte("x"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp.Payload) != "late" {
		t.Fatalf("payload = %q", resp.Payload)
	}
	if st := s.Stats(); st.Resent == 0 {
		t.Fatalf("no resends recorded: %+v", st)
	}
}

// TestSessionCallTimeout: a peer that never answers bounds the caller at
// CallTimeout with ErrTimeout; the session itself stays usable.
func TestSessionCallTimeout(t *testing.T) {
	addr := handshakeServer(t, func(conn net.Conn, sc *Scanner, buf []byte) {
		for {
			if _, err := readFrame(conn, sc, buf); err != nil {
				return // client hung up
			}
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{
		Features:       FeatureKV,
		CallTimeout:    120 * time.Millisecond,
		ResendInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Call(TRequest, []byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The timed-out call released its window bytes and depth slot.
	if got := s.Window().InFlight(); got != 0 {
		t.Fatalf("in-flight bytes after timeout = %d", got)
	}
}

// TestCallDoneResponse covers the select-based completion API.
func TestCallDoneResponse(t *testing.T) {
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
	c, err := s.Issue(TRequest, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
	}
	resp, err := c.Response()
	if err != nil || string(resp.Payload) != "ping" {
		t.Fatalf("response = %+v, %v", resp, err)
	}
}

func TestStringers(t *testing.T) {
	for want, got := range map[string]string{
		"hello":      THello.String(),
		"hello-ack":  THelloAck.String(),
		"request":    TRequest.String(),
		"response":   TResponse.String(),
		"credit":     TCredit.String(),
		"goaway":     TGoAway.String(),
		"type(0xe7)": Type(0xE7).String(),
		"new":        VerdictNew.String(),
		"replay":     VerdictReplay.String(),
		"reject":     VerdictReject.String(),
		"verdict(9)": Verdict(9).String(),
	} {
		if want != got {
			t.Errorf("stringer: %q != %q", got, want)
		}
	}
	if Type(0xFF).String() == "" {
		t.Error("unknown type stringer empty")
	}
}
