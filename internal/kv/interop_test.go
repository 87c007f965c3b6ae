package kv

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/transport"
)

func dialPipelinedT(t *testing.T, srv *Server, opts PipelineOptions) *PipelinedClient {
	t.Helper()
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	c, err := DialPipelined(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("DialPipelined: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestPipelinedEndToEnd(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 2, Trusted: true})
	c := dialPipelinedT(t, srv, PipelineOptions{})

	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if err := c.Set([]byte("user:1"), []byte("alice")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	val, ok, err := c.Get([]byte("user:1"))
	if err != nil || !ok || string(val) != "alice" {
		t.Fatalf("Get = %q ok=%v err=%v", val, ok, err)
	}
	found, err := c.Del([]byte("user:1"))
	if err != nil || !found {
		t.Fatalf("Del = %v, %v", found, err)
	}
	if st := srv.Stats(); st.Sessions != 1 || st.Gets != 2 || st.Sets != 1 || st.Dels != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPipelinedDeepWindow drives the async issue/complete surface at a
// 64-deep pipeline across shards: every response must land on its own
// pending op (opaque correlation), out-of-order completion included.
func TestPipelinedDeepWindow(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 4})
	c := dialPipelinedT(t, srv, PipelineOptions{Depth: 64})
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set(%d): %v", i, err)
		}
	}
	// Issue a full window of GETs before waiting on any of them.
	pendings := make([]*Pending, keys)
	var err error
	for i := range pendings {
		if pendings[i], err = c.IssueGet([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("IssueGet(%d): %v", i, err)
		}
	}
	for i, p := range pendings {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait(%d): %v", i, err)
		}
		if resp.Status != StatusValue || string(resp.Val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = %+v", i, resp)
		}
	}
	st := c.Stats()
	if st.MaxInFlightBytes > st.WindowLimit {
		t.Fatalf("window violated: %d > %d", st.MaxInFlightBytes, st.WindowLimit)
	}
}

// TestInteropMixedSoak runs lockstep and deep-pipelined sessions
// against the same FRONTEND concurrently (the -race soak for the shared
// WRITER path): disjoint key spaces, every read must observe its own
// writes.
func TestInteropMixedSoak(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 4, Trusted: true})
	const sessions, rounds = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for id := 0; id < sessions; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			depth := 1
			if id%2 == 1 {
				depth = 32
			}
			c, err := DialPipelined(srv.Addr(), PipelineOptions{Depth: depth, Timeout: 10 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				k := []byte(fmt.Sprintf("s%d-%d", id, i%7))
				v := []byte(fmt.Sprintf("v-%d", i))
				if err := c.Set(k, v); err != nil {
					errs <- fmt.Errorf("session %d Set: %w", id, err)
					return
				}
				got, ok, err := c.Get(k)
				if err != nil || !ok || !bytes.Equal(got, v) {
					errs <- fmt.Errorf("session %d Get = %q ok=%v err=%v", id, got, ok, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Sessions != sessions || st.Sets != sessions*rounds || st.Gets != sessions*rounds {
		t.Fatalf("stats = %+v, want %d sessions and %d sets and gets", st, sessions, sessions*rounds)
	}
}

// TestNonFramedPeersDropped: the framed transport is the only wire. A
// legacy opcode request and an XML stream opener each get their
// connection closed without a byte of response, while a framed session
// on the same listener keeps answering throughout.
func TestNonFramedPeersDropped(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 2, Trusted: true})
	c := dialPipelinedT(t, srv, PipelineOptions{})

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			k, v := []byte(fmt.Sprintf("live-%d", i%5)), []byte(fmt.Sprintf("v%d", i))
			if err := c.Set(k, v); err != nil {
				done <- fmt.Errorf("live Set: %w", err)
				return
			}
			if got, ok, err := c.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
				done <- fmt.Errorf("live Get = %q ok=%v err=%v", got, ok, err)
				return
			}
		}
	}()

	legacyGet, err := Request{Op: OpGet, ID: 1, Key: []byte("live-0")}.AppendTo(nil)
	if err != nil || legacyGet[0] != 0x01 {
		t.Fatalf("legacy GET encoding = %x, %v", legacyGet, err)
	}
	for _, probe := range [][]byte{legacyGet, []byte("<stream>")} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(probe); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 64))
		_ = conn.Close()
		var ne net.Error
		switch {
		case n > 0:
			t.Fatalf("probe %q answered with %d bytes", probe, n)
		case errors.As(err, &ne) && ne.Timeout():
			t.Fatalf("probe %q: connection still open after 5s", probe)
		case err == nil:
			t.Fatalf("probe %q: empty read without error", probe)
		}
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get([]byte("live-0")); err != nil || !ok {
		t.Fatalf("framed session after probes: ok=%v err=%v", ok, err)
	}
}

// TestPipelinedExactlyOnceOnResend drives the server with a hand-rolled
// framed connection and retransmits a DEL: the replay window must
// answer the duplicate from cache — both responses say "found", the key
// dies once. A re-execution would answer the duplicate with NotFound.
func TestPipelinedExactlyOnceOnResend(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 2})
	seed := dialPipelinedT(t, srv, PipelineOptions{})
	if err := seed.Set([]byte("victim"), []byte("x")); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var sc transport.Scanner
	buf := make([]byte, 64<<10)
	readFrame := func() transport.Frame {
		t.Helper()
		for {
			f, _, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if ok {
				return f
			}
			n, err := conn.Read(buf)
			if n > 0 {
				sc.Feed(buf[:n])
				continue
			}
			if err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	hello, _ := transport.Hello(transport.FeatureKV, transport.DefaultWindow)
	hb, _ := transport.AppendFrame(nil, hello)
	if _, err := conn.Write(hb); err != nil {
		t.Fatal(err)
	}
	if ack := readFrame(); ack.Type != transport.THelloAck || ack.Opaque&transport.FeatureKV == 0 {
		t.Fatalf("handshake ack = %+v", ack)
	}
	payload, _ := Request{Op: OpDel, Key: []byte("victim")}.AppendTo(nil)
	req, _ := transport.AppendFrame(nil, transport.Frame{Type: transport.TRequest, Opaque: 7, Payload: payload})
	var statuses []Status
	for i := 0; i < 2; i++ { // original + at-least-once resend
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		f := readFrame()
		if f.Type != transport.TResponse || f.Opaque != 7 {
			t.Fatalf("send %d: %+v", i, f)
		}
		resp, _, err := ParseResponse(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, resp.Status)
	}
	if statuses[0] != StatusOK || statuses[1] != StatusOK {
		t.Fatalf("DEL statuses = %v: duplicate re-executed instead of replaying", statuses)
	}
	if _, ok, err := seed.Get([]byte("victim")); err != nil || ok {
		t.Fatalf("victim survived: ok=%v err=%v", ok, err)
	}
	if st := srv.Stats(); st.Replayed == 0 {
		t.Fatalf("no replays counted: %+v", st)
	}
}

// TestPipelinedFlowControlSmallWindow: a server advertising a tiny
// session window must throttle a deep pipelined client — bounded
// in-flight bytes, zero failures — rather than dropping or wedging.
func TestPipelinedFlowControlSmallWindow(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 2, SessionWindow: 256})
	c := dialPipelinedT(t, srv, PipelineOptions{Depth: 64, Timeout: 20 * time.Second})
	if limit := c.Stats().WindowLimit; limit != 256 {
		t.Fatalf("advertised window = %d", limit)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 150; i++ {
		k := []byte(fmt.Sprintf("fc-%d", i%9))
		if err := c.Set(k, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatalf("Set(%d): %v", i, err)
		}
	}
	if time.Now().After(deadline) {
		t.Fatal("flow-controlled run blew its deadline")
	}
	st := c.Stats()
	if st.MaxInFlightBytes > 256 {
		t.Fatalf("in-flight high-water %d exceeded the 256-byte advertisement", st.MaxInFlightBytes)
	}
	if st.Issued != 150 || st.Completed != 150 {
		t.Fatalf("issued %d completed %d", st.Issued, st.Completed)
	}
}
