package transport

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/testutil/allocs"
)

// silentPeer answers the handshake and then reads and drops every frame.
func silentPeer(t *testing.T) string {
	return handshakeServer(t, func(conn net.Conn, sc *Scanner, buf []byte) {
		for {
			if _, err := readFrame(conn, sc, buf); err != nil {
				return
			}
		}
	})
}

// TestSessionClockWithoutWait: the session clock, not Wait, resends and
// expires calls, both counted from Issue — a call nobody waits on is
// still retransmitted and still times out.
func TestSessionClockWithoutWait(t *testing.T) {
	conn, err := net.Dial("tcp", silentPeer(t))
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 150 * time.Millisecond
	s, err := Connect(conn, SessionOptions{
		Features:       FeatureKV,
		CallTimeout:    timeout,
		ResendInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	issued := time.Now()
	c, err := s.Issue(TRequest, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("an unwaited call never expired")
	}
	if _, err := c.Response(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took := time.Since(issued); took < timeout {
		t.Fatalf("expired after %v, before the %v timeout", took, timeout)
	}
	if st := s.Stats(); st.Resent < 2 {
		t.Fatalf("resent %d times in %v at a 30ms interval", st.Resent, timeout)
	}
	if got := s.Window().InFlight(); got != 0 {
		t.Fatalf("in-flight bytes after expiry = %d", got)
	}
}

// TestSessionGoroutinesFixed: a session runs its reader and its clock,
// whatever its depth and however many calls are in flight — no timer or
// goroutine per call.
func TestSessionGoroutinesFixed(t *testing.T) {
	addr := silentPeer(t)
	const depth = 64
	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{Features: FeatureKV, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < depth; i++ {
		if _, err := s.Issue(TRequest, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine() - before; got != 2 {
		t.Fatalf("session with %d calls in flight runs %d goroutines, want 2", depth, got)
	}
}

// TestSessionCallAllocations: on a warm loopback session, issuing a call
// and waiting for it allocates only the reply the caller keeps. The
// count is process-wide, so it covers the Serve peer too.
func TestSessionCallAllocations(t *testing.T) {
	allocs.SkipUnderRace(t)
	conn, err := net.Dial("tcp", serveOne(t, echoHandler, ServeOptions{Features: FeatureKV}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(conn, SessionOptions{Features: FeatureKV})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 128)
	call := func() {
		if _, err := s.Call(TRequest, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*DefaultReplayWindow; i++ { // size every replay slot
		call()
	}
	if n := testing.AllocsPerRun(1000, call); n > 1 {
		t.Fatalf("Issue+Wait allocates %v times per call, want at most the reply", n)
	}
}
