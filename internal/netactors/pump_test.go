package netactors

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

// startEcho deploys the full OPENER/ACCEPTER/READER/WRITER/CLOSER echo
// pipeline on sys, with the echo service enclaved, and returns the bound
// address. The service closes each connection once the READER reports
// it closed, so the socket table drains as clients hang up.
func startEcho(t *testing.T, sys *System) (addr string, stop func()) {
	t.Helper()
	addrCh := make(chan string, 1)

	const (
		stOpen = iota
		stWatchListener
		stServe
	)
	type echoState struct {
		phase   int
		scratch []byte
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
			closer := self.MustChannel("close")
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
				addrCh <- string(msg.Data)
				w, _ := (Msg{Type: MsgWatch, Sock: msg.Sock}).AppendTo(nil)
				if accept.Send(w) == nil {
					st.phase = stServe
					self.Progress()
				}
			case stServe:
				if n, ok, _ := accept.Recv(buf); ok {
					if msg, err := ParseMsg(buf[:n]); err == nil && msg.Type == MsgAccepted {
						w, _ := (Msg{Type: MsgWatch, Sock: msg.Sock}).AppendTo(st.scratch[:0])
						st.scratch = w
						_ = read.Send(w) //sendcheck:ok
						self.Progress()
					}
				}
				for i := 0; i < drainBatch; i++ {
					n, ok, _ := read.Recv(buf)
					if !ok {
						break
					}
					msg, err := ParseMsg(buf[:n])
					if err != nil {
						continue
					}
					switch msg.Type {
					case MsgData:
						out, _ := (Msg{Type: MsgData, Sock: msg.Sock, Data: msg.Data}).AppendTo(nil)
						_ = write.Send(out) //sendcheck:ok
					case MsgClosed:
						c, _ := (Msg{Type: MsgClose, Sock: msg.Sock}).AppendTo(nil)
						_ = closer.Send(c) //sendcheck:ok
					}
					self.Progress()
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
			{Name: "read", A: "echo", B: "reader", Capacity: 256},
			{Name: "write", A: "echo", B: "writer", Capacity: 256},
			{Name: "close", A: "echo", B: "closer", Capacity: 256},
		},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		rt.Stop()
		t.Fatal("no listen address from the pipeline")
	}
	return addr, rt.Stop
}

// expectEcho reads exactly len(want) bytes from conn and checks them.
func expectEcho(t *testing.T, conn net.Conn, want []byte) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, len(want))
	for n := 0; n < len(want); {
		k, err := conn.Read(got[n:])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", n, err)
		}
		n += k
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("echo = %q, want %q", got, want)
	}
}

// echoRounds runs request/response rounds against an echo server.
func echoRounds(t *testing.T, addr string, rounds int, payload []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	for round := 0; round < rounds; round++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		expectEcho(t, conn, payload)
	}
}

// TestPumpSlowLoris drips bytes one at a time into the pipeline: every
// partial chunk must surface and echo back intact.
func TestPumpSlowLoris(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()
	addr, stop := startEcho(t, sys)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	msg := []byte("dripped one byte at a time")
	for _, b := range msg {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatalf("drip write: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expectEcho(t, conn, msg)
}

// TestPumpChurn slams the accept path with short-lived connections:
// accept, one echo round or none, close. Every socket must unwind out of
// the table once its READER reports it closed — a leaked socket would
// also be a leaked read pump.
func TestPumpChurn(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()
	addr, stop := startEcho(t, sys)
	defer stop()

	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for i := 0; i < rounds; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if i%2 == 0 {
			payload := []byte("churn")
			if _, err := conn.Write(payload); err != nil {
				t.Fatalf("churn write %d: %v", i, err)
			}
			expectEcho(t, conn, payload)
		}
		conn.Close()
	}
	// Only the listener stays registered once every MsgClosed has landed.
	deadline := time.Now().Add(10 * time.Second)
	for sys.Table().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("churn leaked %d sockets", sys.Table().Len()-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPumpReaderEOF is the MsgClosed path over a real TCP socket
// (TestReaderReportsEOF covers net.Pipe).
func TestPumpReaderEOF(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	connCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server := <-connCh
	defer server.Close()
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

	_ = client.Close()
	select {
	case <-gotClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("MsgClosed never delivered over TCP")
	}
}

// TestPumpHandoff moves a watched socket between two READERs — the XMPP
// connector's handshake-to-shard handoff — while the client keeps
// writing. No bytes may be lost or reordered, and the second READER must
// keep receiving after the first unbinds.
func TestPumpHandoff(t *testing.T) {
	sys := NewSystem()
	defer sys.Shutdown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	connCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	server := <-connCh
	defer server.Close()
	sock := sys.Table().AddConn(server)

	var mu sync.Mutex
	fromA, fromB := []byte(nil), []byte(nil)
	handedOff := make(chan struct{})

	const handoffAt = 32 // bytes seen by A before it hands the socket to B

	appA := core.Spec{
		Name:   "app-a",
		Worker: 0,
		Init: func(self *core.Self) error {
			w, _ := (Msg{Type: MsgWatch, Sock: sock.ID()}).AppendTo(nil)
			return self.MustChannel("read-a").Send(w)
		},
		Body: func(self *core.Self) {
			read := self.MustChannel("read-a")
			buf := make([]byte, 2048)
			n, ok, _ := read.Recv(buf)
			if !ok {
				return
			}
			self.Progress()
			msg, err := ParseMsg(buf[:n])
			if err != nil || msg.Type != MsgData {
				return
			}
			mu.Lock()
			fromA = append(fromA, msg.Data...)
			cut := len(fromA) >= handoffAt
			mu.Unlock()
			if cut {
				select {
				case <-handedOff:
				default:
					u, _ := (Msg{Type: MsgUnwatch, Sock: sock.ID()}).AppendTo(nil)
					if read.Send(u) == nil {
						close(handedOff)
					}
				}
			}
		},
	}
	appB := core.Spec{
		Name:   "app-b",
		Worker: 0,
		Body: func(self *core.Self) {
			read := self.MustChannel("read-b")
			select {
			case <-handedOff:
			default:
				return // A still owns the socket
			}
			buf := make([]byte, 2048)
			n, ok, _ := read.Recv(buf)
			if !ok {
				// Watch exactly once after handoff.
				mu.Lock()
				watched := fromB != nil
				mu.Unlock()
				if !watched {
					w, _ := (Msg{Type: MsgWatch, Sock: sock.ID()}).AppendTo(nil)
					if read.Send(w) == nil {
						mu.Lock()
						fromB = []byte{}
						mu.Unlock()
						self.Progress()
					}
				}
				return
			}
			self.Progress()
			if msg, err := ParseMsg(buf[:n]); err == nil && msg.Type == MsgData {
				mu.Lock()
				fromB = append(fromB, msg.Data...)
				mu.Unlock()
			}
		},
	}

	cfg := core.Config{
		Workers: []core.WorkerSpec{{}, {}},
		Actors: []core.Spec{
			appA, appB,
			sys.ReaderSpec("reader-a", 1, "read-a"),
			sys.ReaderSpec("reader-b", 1, "read-b"),
		},
		Channels: []core.ChannelSpec{
			{Name: "read-a", A: "app-a", B: "reader-a", Capacity: 256},
			{Name: "read-b", A: "app-b", B: "reader-b", Capacity: 256},
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

	// Stream numbered 8-byte records so loss or reordering is visible.
	const records = 200
	go func() {
		for i := 0; i < records; i++ {
			if _, err := client.Write([]byte(fmt.Sprintf("r%06d\n", i))); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var total []byte
	deadline := time.Now().Add(30 * time.Second)
	want := records * 8
	for {
		mu.Lock()
		total = append(append([]byte(nil), fromA...), fromB...)
		mu.Unlock()
		if len(total) >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d bytes across handoff (A=%d B=%d)",
				len(total), want, len(fromA), len(fromB))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < records; i++ {
		rec := []byte(fmt.Sprintf("r%06d\n", i))
		if !bytes.Equal(total[i*8:i*8+8], rec) {
			t.Fatalf("record %d corrupted across handoff: %q", i, total[i*8:i*8+8])
		}
	}
	mu.Lock()
	gotB := len(fromB)
	mu.Unlock()
	if gotB == 0 {
		t.Fatal("second READER never received data after handoff")
	}
}

// TestReaderDrainsOnlyReadySockets: a READER watching 1 000 idle sockets
// and one live one drains only the live one as its chunks arrive. The
// drain count follows the chunks delivered, not the size of the watch
// set; a READER that scanned its watches would drain all 1 001 on every
// invocation. Counted, not timed, so it holds on any host.
func TestReaderDrainsOnlyReadySockets(t *testing.T) {
	const idle, chunks = 1000, 50
	sys := NewSystem()
	defer sys.Shutdown()
	table := sys.Table()
	var peers []net.Conn
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	addConn := func() *Socket {
		local, peer := net.Pipe()
		peers = append(peers, peer)
		return table.AddConn(local)
	}

	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "app", Worker: 0, Body: func(*core.Self) {}},
			sys.ReaderSpec("reader", 0, "read"),
		},
		Channels: []core.ChannelSpec{{Name: "read", A: "app", B: "reader", Capacity: 2048}},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	read, err := rt.EndpointForTest("app", "read")
	if err != nil {
		t.Fatal(err)
	}
	watch := func(s *Socket) {
		w, _ := (Msg{Type: MsgWatch, Sock: s.ID()}).AppendTo(nil)
		deadline := time.Now().Add(10 * time.Second)
		for read.Send(w) != nil {
			if time.Now().After(deadline) {
				t.Fatal("watch send timed out")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < idle; i++ {
		watch(addConn())
	}
	// The live watch queues behind the idle ones on one FIFO channel, so
	// once its first chunk comes back every idle socket is watched.
	live := addConn()
	livePeer := peers[len(peers)-1]
	watch(live)
	deliver := func(i int) {
		chunk := []byte(fmt.Sprintf("chunk %03d", i))
		if _, err := livePeer.Write(chunk); err != nil {
			t.Fatalf("chunk %d write: %v", i, err)
		}
		msg := netWait(t, read)
		if msg.Type != MsgData || msg.Sock != live.ID() || !bytes.Equal(msg.Data, chunk) {
			t.Fatalf("chunk %d: got %+v", i, msg)
		}
	}
	deliver(0)
	before := table.stats.drains.Load()
	for i := 1; i <= chunks; i++ {
		deliver(i)
	}
	// One drain per chunk, plus at most one more per chunk when a
	// re-mark races the drain that already took the bytes.
	if drains := table.stats.drains.Load() - before; drains > 2*chunks {
		t.Fatalf("%d chunks on 1 live socket cost %d drains with %d idle watches, want <= %d",
			chunks, drains, idle, 2*chunks)
	}
}
