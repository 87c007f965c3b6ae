package netactors

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns the two ends of a loopback TCP connection: server is
// the end a Table writes to, peer the end that reads it.
func tcpPair(t *testing.T) (server, peer *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return s.(*net.TCPConn), c.(*net.TCPConn)
}

// backlogFrame builds frame seq of writer w: a 5-byte header (writer,
// seq, payload length) and a 1-3 KiB payload whose every byte depends
// on writer, seq and offset, so a frame cut by another writer's bytes
// cannot parse as whole.
func backlogFrame(w byte, seq int) []byte {
	n := 1024 + (seq*797+int(w)*331)%2048
	f := make([]byte, 5+n)
	f[0] = w
	binary.BigEndian.PutUint16(f[1:], uint16(seq))
	binary.BigEndian.PutUint16(f[3:], uint16(n))
	for i := range f[5:] {
		f[5+i] = byte(int(w)*31 + seq + i)
	}
	return f
}

// readBacklogFrame reads one frame from r and checks that it is whole.
func readBacklogFrame(r io.Reader) (w byte, seq int, err error) {
	var h [5]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, 0, err
	}
	w, seq = h[0], int(binary.BigEndian.Uint16(h[1:]))
	want := backlogFrame(w, seq)
	got := make([]byte, binary.BigEndian.Uint16(h[3:]))
	if _, err := io.ReadFull(r, got); err != nil {
		return 0, 0, err
	}
	if len(got) != len(want)-5 || string(got) != string(want[5:]) {
		return 0, 0, fmt.Errorf("writer %d frame %d arrived cut or mixed", w, seq)
	}
	return w, seq, nil
}

// waitPumpGone waits for the socket's write pump to exit, which it does
// as soon as its backlog is written; the flag, not a sleep, decides.
func waitPumpGone(t *testing.T, s *Socket) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.writeRunning.Load() || s.unwritten.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write pump still running (unwritten=%d)", s.unwritten.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteBacklogOrderAndHandover drives one socket through
// inline → pump → inline. Two WRITERs share the socket while its peer
// is paused, so the kernel refuses bytes and the rest queue for the
// write pump. Once the peer reads again, every frame must arrive once,
// whole and in its writer's order. Then a lockstep exchange must go out
// inline only: the backlog counter stays put and no write goroutine is
// left on the socket.
func TestWriteBacklogOrderAndHandover(t *testing.T) {
	const writers, perWriter, lockstep = 2, 110, 200
	server, peer := tcpPair(t)
	// A small send buffer, so the kernel fills after a few frames and
	// the rest must go through the pump. The peer's receive window stays
	// as the handshake set it; shrinking it afterwards stalls loopback
	// TCP in retransmits.
	_ = server.SetWriteBuffer(4096)
	table := NewTable()
	defer table.CloseAll()
	s := table.AddConn(server)

	var wg sync.WaitGroup
	for w := byte(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				if err := table.Write(s.ID(), backlogFrame(w, seq)); err != nil {
					t.Errorf("writer %d frame %d: %v", w, seq, err)
					return
				}
			}
		}()
	}
	wg.Wait() // Write never blocks, so both writers finish while the peer sleeps
	if q := table.stats.queued.Load(); q == 0 {
		t.Fatalf("%d frames to a paused peer queued nothing for the pump", writers*perWriter)
	}
	if d := table.stats.dropped.Load(); d != 0 {
		t.Fatalf("%d frames dropped; the outbox holds %d", d, inboxCap)
	}

	_ = peer.SetReadDeadline(time.Now().Add(30 * time.Second))
	next := make([]int, writers)
	for i := 0; i < writers*perWriter; i++ {
		w, seq, err := readBacklogFrame(peer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != next[w] {
			t.Fatalf("writer %d: frame %d arrived, want %d", w, seq, next[w])
		}
		next[w]++
	}
	waitPumpGone(t, s)

	// Lockstep: room in the send buffer for every frame, so nothing is
	// refused and nothing may reach the pump.
	_ = server.SetWriteBuffer(1 << 20)
	queued := table.stats.queued.Load()
	for seq := 0; seq < lockstep; seq++ {
		if err := table.Write(s.ID(), backlogFrame(0, seq)); err != nil {
			t.Fatal(err)
		}
		if w, got, err := readBacklogFrame(peer); err != nil || w != 0 || got != seq {
			t.Fatalf("lockstep frame %d: writer %d frame %d, %v", seq, w, got, err)
		}
		if s.writeRunning.Load() {
			t.Fatalf("lockstep frame %d started a write pump", seq)
		}
	}
	if q := table.stats.queued.Load(); q != queued {
		t.Fatalf("%d lockstep frames queued %d for the pump, want 0", lockstep, q-queued)
	}
}

// TestCloseDrainsFrameBeingWrittenTCP is the TCP twin of
// TestCloseDrainsFrameBeingWritten: a frame followed at once by Close
// (the handshake-failure teardown) must reach a peer that starts reading
// late. Here the frame goes out inline, so it is with the kernel before
// Close runs, and the close that follows it must not cut it off.
func TestCloseDrainsFrameBeingWrittenTCP(t *testing.T) {
	server, peer := tcpPair(t)
	table := NewTable()
	defer table.CloseAll()
	s := table.AddConn(server)
	if err := table.Write(s.ID(), []byte("<failure/>")); err != nil {
		t.Fatal(err)
	}
	if q := table.stats.queued.Load(); q != 0 {
		t.Fatalf("a 10-byte frame to an idle peer queued %d for the pump", q)
	}
	got := make(chan string, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
		b, _ := io.ReadAll(peer)
		got <- string(b)
	}()
	if err := table.Close(s.ID()); err != nil {
		t.Fatal(err)
	}
	if frame := <-got; frame != "<failure/>" {
		t.Fatalf("peer read %q before the close, want the frame", frame)
	}
}

// TestInlineWriteOutlivesPumpDeadline: after a backlog has drained, a
// frame sent once the pump's last write deadline would have expired
// still goes out inline. The pump clears its deadline before it counts
// its last frame written; left set, RawConn.Write would fail on it and
// every later frame would detour through a pump.
func TestInlineWriteOutlivesPumpDeadline(t *testing.T) {
	server, peer := tcpPair(t)
	_ = server.SetWriteBuffer(4096)
	table := NewTable()
	defer table.CloseAll()
	s := table.AddConn(server)
	const frames = 100
	for seq := 0; seq < frames; seq++ {
		if err := table.Write(s.ID(), backlogFrame(0, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if table.stats.queued.Load() == 0 {
		t.Fatal("no backlog reached the pump")
	}
	_ = peer.SetReadDeadline(time.Now().Add(30 * time.Second))
	for seq := 0; seq < frames; seq++ {
		if _, _, err := readBacklogFrame(peer); err != nil {
			t.Fatal(err)
		}
	}
	waitPumpGone(t, s)
	time.Sleep(writeDeadline + 100*time.Millisecond)
	queued := table.stats.queued.Load()
	if err := table.Write(s.ID(), backlogFrame(0, frames)); err != nil {
		t.Fatal(err)
	}
	if w, seq, err := readBacklogFrame(peer); err != nil || w != 0 || seq != frames {
		t.Fatalf("late frame: writer %d frame %d, %v", w, seq, err)
	}
	if q := table.stats.queued.Load(); q != queued {
		t.Fatalf("a frame after the deadline went to the pump (%d queued), want inline", q-queued)
	}
}
