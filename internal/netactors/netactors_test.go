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
	addr, stop := startEcho(t, sys)
	defer stop()
	echoRounds(t, addr, 5, []byte("ping through the enclave pipeline"))
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

// Table exposes the socket table (for custom network actors, as the
// paper's XMPP service builds).
func (s *System) Table() *Table { return s.table }

// ID returns the socket identifier.
func (s *Socket) ID() uint32 { return s.id }
