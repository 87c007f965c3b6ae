package netactors

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

func TestMsgRoundTrip(t *testing.T) {
	m := Msg{Type: MsgData, Sock: 42, Data: []byte("payload")}
	buf, err := m.AppendTo(nil)
	if err != nil {
		t.Fatalf("AppendTo: %v", err)
	}
	got, err := ParseMsg(buf)
	if err != nil {
		t.Fatalf("ParseMsg: %v", err)
	}
	if got.Type != m.Type || got.Sock != m.Sock || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("roundtrip = %+v, want %+v", got, m)
	}
}

func TestMsgErrors(t *testing.T) {
	if _, err := ParseMsg([]byte{1, 2}); err != ErrShortMsg {
		t.Fatalf("short parse err = %v", err)
	}
	// Declared length longer than buffer.
	m := Msg{Type: MsgData, Sock: 1, Data: []byte("abcdef")}
	buf, _ := m.AppendTo(nil)
	if _, err := ParseMsg(buf[:len(buf)-2]); err != ErrShortMsg {
		t.Fatalf("truncated parse err = %v", err)
	}
	// Oversized data rejected at encode time.
	if _, err := (Msg{Data: make([]byte, 70000)}).AppendTo(nil); err == nil {
		t.Fatal("64KiB+ frame accepted")
	}
}

func TestMsgQuick(t *testing.T) {
	f := func(typeByte uint8, sock uint32, data []byte) bool {
		if len(data) > 0xFFFF {
			data = data[:0xFFFF]
		}
		m := Msg{Type: MsgType(typeByte), Sock: sock, Data: data}
		buf, err := m.AppendTo(nil)
		if err != nil {
			return false
		}
		got, err := ParseMsg(buf)
		return err == nil && got.Type == m.Type && got.Sock == m.Sock && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableLifecycle(t *testing.T) {
	table := NewTable()
	c1, c2 := net.Pipe()
	defer c2.Close()
	s := table.AddConn(c1)
	if s.ID() == 0 {
		t.Fatal("socket id 0 assigned")
	}
	got, ok := table.Get(s.ID())
	if !ok || got != s {
		t.Fatal("Get did not return the socket")
	}
	if table.Len() != 1 {
		t.Fatalf("Len = %d", table.Len())
	}
	if err := table.Close(s.ID()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := table.Get(s.ID()); ok {
		t.Fatal("closed socket still registered")
	}
	if err := table.Close(999); err == nil {
		t.Fatal("closing unknown socket succeeded")
	}
}

func TestTableWriteUnknown(t *testing.T) {
	table := NewTable()
	if err := table.Write(7, []byte("x")); err == nil {
		t.Fatal("write to unknown socket succeeded")
	}
}

func TestMaxData(t *testing.T) {
	if MaxData(2048) != 2048-msgHeader {
		t.Fatalf("MaxData = %d", MaxData(2048))
	}
}

// TestEchoPipeline drives the full system-actor pipeline: an enclaved
// echo service listens via OPENER/ACCEPTER, reads via READER, writes via
// WRITER, and an external TCP client checks the echo.
func TestEchoPipeline(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()

	addrCh := make(chan string, 1)
	var finished atomic.Bool

	// State machine of the echo application eactor.
	const (
		stOpen = iota
		stWatchListener
		stServe
	)
	type echoState struct {
		phase    int
		listener uint32
		scratch  []byte
	}

	echo := core.Spec{
		Name:    "echo",
		Enclave: "service",
		Worker:  0,
		State:   &echoState{},
		Body: func(self *core.Self) {
			st := self.State.(*echoState)
			opener := self.MustChannel("open")
			accept := self.MustChannel("accept")
			read := self.MustChannel("read")
			write := self.MustChannel("write")
			buf := make([]byte, 2048)

			switch st.phase {
			case stOpen:
				m, _ := (Msg{Type: MsgListen, Data: []byte("127.0.0.1:0")}).AppendTo(nil)
				if opener.Send(m) == nil {
					st.phase = stWatchListener
					self.Progress()
				}
			case stWatchListener:
				n, ok, err := opener.Recv(buf)
				if err != nil || !ok {
					return
				}
				msg, err := ParseMsg(buf[:n])
				if err != nil || msg.Type != MsgOpenOK {
					t.Errorf("listen failed: %+v err=%v", msg, err)
					self.StopRuntime()
					return
				}
				st.listener = msg.Sock
				addrCh <- string(msg.Data)
				w, _ := (Msg{Type: MsgWatch, Sock: msg.Sock}).AppendTo(nil)
				if accept.Send(w) == nil {
					st.phase = stServe
					self.Progress()
				}
			case stServe:
				// Watch newly accepted connections with the READER.
				if n, ok, _ := accept.Recv(buf); ok {
					if msg, err := ParseMsg(buf[:n]); err == nil && msg.Type == MsgAccepted {
						w, _ := (Msg{Type: MsgWatch, Sock: msg.Sock}).AppendTo(st.scratch[:0])
						st.scratch = w
						_ = read.Send(w) //sendcheck:ok
						self.Progress()
					}
				}
				// Echo data back through the WRITER.
				if n, ok, _ := read.Recv(buf); ok {
					if msg, err := ParseMsg(buf[:n]); err == nil && msg.Type == MsgData {
						out, _ := (Msg{Type: MsgData, Sock: msg.Sock, Data: msg.Data}).AppendTo(nil)
						_ = write.Send(out) //sendcheck:ok
						self.Progress()
					}
				}
			}
		},
	}

	cfg := core.Config{
		Enclaves: []core.EnclaveSpec{{Name: "service"}},
		Workers:  []core.WorkerSpec{{}, {}},
		Actors: []core.Spec{
			echo,
			sys.OpenerSpec("opener", 1, "open"),
			sys.AccepterSpec("accepter", 1, "accept"),
			sys.ReaderSpec("reader", 1, "read"),
			sys.WriterSpec("writer", 1, "write"),
			sys.CloserSpec("closer", 1, "close"),
		},
		Channels: []core.ChannelSpec{
			{Name: "open", A: "echo", B: "opener"},
			{Name: "accept", A: "echo", B: "accepter"},
			{Name: "read", A: "echo", B: "reader"},
			{Name: "write", A: "echo", B: "writer"},
			{Name: "close", A: "echo", B: "closer"},
		},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no listen address from the pipeline")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	for round := 0; round < 5; round++ {
		msg := []byte("ping through the enclave pipeline")
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("client write: %v", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(msg))
		n := 0
		for n < len(msg) {
			k, err := conn.Read(got[n:])
			if err != nil {
				t.Fatalf("client read: %v", err)
			}
			n += k
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo round %d = %q", round, got)
		}
	}
	finished.Store(true)
}

// TestReaderReportsEOF checks the MsgClosed notification path.
func TestReaderReportsEOF(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()

	client, server := net.Pipe()
	sock := sys.Table().AddConn(server)

	gotClosed := make(chan struct{}, 1)
	app := core.Spec{
		Name:   "app",
		Worker: 0,
		Body: func(self *core.Self) {
			read := self.MustChannel("read")
			buf := make([]byte, 2048)
			n, ok, _ := read.Recv(buf)
			if !ok {
				return
			}
			if msg, err := ParseMsg(buf[:n]); err == nil && msg.Type == MsgClosed && msg.Sock == sock.ID() {
				select {
				case gotClosed <- struct{}{}:
				default:
				}
			}
			self.Progress()
		},
		Init: func(self *core.Self) error {
			w, _ := (Msg{Type: MsgWatch, Sock: sock.ID()}).AppendTo(nil)
			return self.MustChannel("read").Send(w)
		},
	}

	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			app,
			sys.ReaderSpec("reader", 0, "read"),
		},
		Channels: []core.ChannelSpec{{Name: "read", A: "app", B: "reader"}},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()

	_ = client.Close() // EOF on the watched socket

	select {
	case <-gotClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("MsgClosed never delivered")
	}
}

// TestCloseDrainsFrameBeingWritten: a frame followed by Close on the same
// socket (the handshake-failure teardown) must reach a peer that is a
// little slow to read. The pump has then already taken the frame off the
// outbox and sits inside conn.Write, so an empty outbox does not mean
// the frame is out.
func TestCloseDrainsFrameBeingWritten(t *testing.T) {
	local, peer := net.Pipe() // unbuffered: Write blocks until the peer reads
	defer peer.Close()
	table := NewTable()
	s := table.AddConn(local)
	if err := table.Write(s.ID(), []byte("<failure/>")); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		buf := make([]byte, 64)
		n, _ := peer.Read(buf)
		got <- string(buf[:n])
	}()
	if err := table.Close(s.ID()); err != nil {
		t.Fatal(err)
	}
	if frame := <-got; frame != "<failure/>" {
		t.Fatalf("peer read %q before the close, want the frame", frame)
	}
}

// lateConn is a connection whose Read takes a while to notice the close.
type lateConn struct {
	net.Conn
	readDone atomic.Bool
}

func (c *lateConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		time.Sleep(20 * time.Millisecond)
		c.readDone.Store(true)
	}
	return n, err
}

// TestCloseAllWaitsForPumps: when CloseAll returns, its sockets' pumps
// have exited — not "will exit shortly". A pump that lingers keeps the
// stopped deployment reachable through its wake function, and a
// deployment started right after then doubles the heap.
func TestCloseAllWaitsForPumps(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	conn := &lateConn{Conn: local}
	table := NewTable()
	table.AddConn(conn).startReadPump()
	table.CloseAll()
	if !conn.readDone.Load() {
		t.Fatal("CloseAll returned while the read pump was still inside conn.Read")
	}
}
