package netactors

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

// startNetRuntime builds a runtime with one idle app actor wired to all
// five system eactors, and returns the app's endpoints for test-side
// protocol driving.
func startNetRuntime(t *testing.T, sys *System) map[string]*core.Endpoint {
	t.Helper()
	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "app", Worker: 0, Body: func(*core.Self) {}},
			sys.OpenerSpec("opener", 0, "open"),
			sys.AccepterSpec("accepter", 0, "accept"),
			sys.ReaderSpec("reader", 0, "read"),
			sys.WriterSpec("writer", 0, "write"),
			sys.CloserSpec("closer", 0, "close"),
		},
		Channels: []core.ChannelSpec{
			{Name: "open", A: "app", B: "opener"},
			{Name: "accept", A: "app", B: "accepter"},
			{Name: "read", A: "app", B: "reader"},
			{Name: "write", A: "app", B: "writer"},
			{Name: "close", A: "app", B: "closer"},
		},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	eps := map[string]*core.Endpoint{}
	for _, name := range []string{"open", "accept", "read", "write", "close"} {
		ep, err := rt.EndpointForTest("app", name)
		if err != nil {
			t.Fatal(err)
		}
		eps[name] = ep
	}
	return eps
}

// netCall sends a request and waits for one response on the endpoint.
func netCall(t *testing.T, ep *core.Endpoint, req Msg) Msg {
	t.Helper()
	buf, err := req.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ep.Send(buf) != nil {
		if time.Now().After(deadline) {
			t.Fatal("send timed out")
		}
	}
	return netWait(t, ep)
}

// netWait waits for one message on the endpoint.
func netWait(t *testing.T, ep *core.Endpoint) Msg {
	t.Helper()
	recv := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, ok, err := ep.Recv(recv)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if ok {
			msg, err := ParseMsg(recv[:n])
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			return msg
		}
		if time.Now().After(deadline) {
			t.Fatal("recv timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenerDial exercises the client-socket path: OPENER dials an
// external server, READER watches the connection, WRITER sends,
// CLOSER closes.
func TestOpenerDial(t *testing.T) {
	// External echo server.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				return
			}
		}
	}()

	sys := NewSystem()
	defer sys.Shutdown()
	eps := startNetRuntime(t, sys)

	// Dial.
	resp := netCall(t, eps["open"], Msg{Type: MsgDial, Data: []byte(lis.Addr().String())})
	if resp.Type != MsgOpenOK {
		t.Fatalf("dial response = %+v", resp)
	}
	sock := resp.Sock

	// Watch with the READER, then send through the WRITER.
	w, _ := (Msg{Type: MsgWatch, Sock: sock}).AppendTo(nil)
	if err := eps["read"].Send(w); err != nil {
		t.Fatal(err)
	}
	out, _ := (Msg{Type: MsgData, Sock: sock, Data: []byte("echo me")}).AppendTo(nil)
	if err := eps["write"].Send(out); err != nil {
		t.Fatal(err)
	}
	echo := netWait(t, eps["read"])
	if echo.Type != MsgData || !bytes.Equal(echo.Data, []byte("echo me")) {
		t.Fatalf("echo = %+v", echo)
	}

	// Close via the CLOSER; the table empties.
	c, _ := (Msg{Type: MsgClose, Sock: sock}).AppendTo(nil)
	if err := eps["close"].Send(c); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.Table().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("table still holds %d sockets", sys.Table().Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenerDialFailure covers the MsgOpenErr path.
func TestOpenerDialFailure(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()
	eps := startNetRuntime(t, sys)
	// Dial a port that refuses connections.
	resp := netCall(t, eps["open"], Msg{Type: MsgDial, Data: []byte("127.0.0.1:1")})
	if resp.Type != MsgOpenErr || len(resp.Data) == 0 {
		t.Fatalf("dial-failure response = %+v", resp)
	}
}

// TestListenFailure covers MsgOpenErr on a bad listen address.
func TestListenFailure(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()
	eps := startNetRuntime(t, sys)
	resp := netCall(t, eps["open"], Msg{Type: MsgListen, Data: []byte("256.0.0.1:0")})
	if resp.Type != MsgOpenErr {
		t.Fatalf("listen-failure response = %+v", resp)
	}
}

// TestUnwatchHandoff moves a watched socket from one READER to another,
// the mechanism the XMPP CONNECTOR uses to hand connections to shards.
func TestUnwatchHandoff(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()

	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "app", Worker: 0, Body: func(*core.Self) {}},
			sys.ReaderSpec("reader1", 0, "read1"),
			sys.ReaderSpec("reader2", 0, "read2"),
		},
		Channels: []core.ChannelSpec{
			{Name: "read1", A: "app", B: "reader1"},
			{Name: "read2", A: "app", B: "reader2"},
		},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	read1, _ := rt.EndpointForTest("app", "read1")
	read2, _ := rt.EndpointForTest("app", "read2")

	client, server := net.Pipe()
	defer client.Close()
	sock := sys.Table().AddConn(server)

	// reader1 watches; first message arrives there.
	w, _ := (Msg{Type: MsgWatch, Sock: sock.ID()}).AppendTo(nil)
	if err := read1.Send(w); err != nil {
		t.Fatal(err)
	}
	go client.Write([]byte("first"))
	msg := netWait(t, read1)
	if msg.Type != MsgData || string(msg.Data) != "first" {
		t.Fatalf("first = %+v", msg)
	}

	// Handoff: unwatch on reader1, watch on reader2.
	u, _ := (Msg{Type: MsgUnwatch, Sock: sock.ID()}).AppendTo(nil)
	if err := read1.Send(u); err != nil {
		t.Fatal(err)
	}
	w2, _ := (Msg{Type: MsgWatch, Sock: sock.ID()}).AppendTo(nil)
	if err := read2.Send(w2); err != nil {
		t.Fatal(err)
	}
	// Give the unwatch a moment to land before sending.
	time.Sleep(50 * time.Millisecond)
	go client.Write([]byte("second"))
	msg = netWait(t, read2)
	if msg.Type != MsgData || string(msg.Data) != "second" {
		t.Fatalf("second = %+v", msg)
	}
	// reader1 acknowledged the unwatch and must not have consumed it.
	if msg := netWait(t, read1); msg.Type != MsgUnwatched || msg.Sock != sock.ID() {
		t.Fatalf("reader1 after unwatch = %+v, want the MsgUnwatched acknowledgement", msg)
	}
	if n, ok, _ := read1.Recv(make([]byte, 256)); ok {
		t.Fatalf("reader1 still delivered %d bytes after unwatch", n)
	}
}
