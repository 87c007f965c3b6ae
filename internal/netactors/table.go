package netactors

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// inboxCap bounds the per-socket receive queue between the pump
// goroutine and the READER eactor.
const inboxCap = 256

// readBufBytes is the pump's per-read buffer size, and the size of
// every buffer on a table's free list.
const readBufBytes = 2048

// freeBufs caps a table's free list: 256 KiB of recycled buffers at
// most, whatever the connection count.
const freeBufs = 128

// bufList is a table's bounded free list of readBufBytes buffers. Read
// pumps take one per read and the READER hands it back once it has
// copied the chunk into its send stage; Write takes one per frame the
// kernel refused and the write pump hands it back after conn.Write. Only
// chunks and refused frames in flight hold buffers, so idle sockets hold
// none beyond the one a parked read pump reads into.
type bufList chan []byte

// get returns a buffer of length n, recycled when n fits readBufBytes.
func (l bufList) get(n int) []byte {
	if n > readBufBytes {
		return make([]byte, n)
	}
	select {
	case b := <-l:
		return b[:n]
	default:
		return make([]byte, n, readBufBytes)
	}
}

// put recycles b unless it is not a free-list buffer or the list is
// full. The caller must not touch b afterwards.
func (l bufList) put(b []byte) {
	if cap(b) != readBufBytes {
		return
	}
	select {
	case l <- b:
	default:
	}
}

// tableStats are the table-wide traffic counters. They live on the Table
// (sockets hold a pointer) so the totals survive socket teardown; the
// telemetry registry reads them at scrape time.
type tableStats struct {
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	dials    atomic.Uint64
	accepts  atomic.Uint64
	dropped  atomic.Uint64
	queued   atomic.Uint64 // frames or remainders the kernel refused, handed to a write pump
	// drains counts READER socket drains: with the ready queue it tracks
	// the sockets that had work, not the size of any watch set.
	drains atomic.Uint64
}

// Socket wraps one connection or listener registered in a Table.
type Socket struct {
	id    uint32
	conn  net.Conn
	lis   net.Listener
	stats *tableStats
	pumps *sync.WaitGroup // the table's; see Table.pumps
	bufs  bufList         // the table's

	inbox    chan []byte // filled by the read pump
	accepted chan uint32 // filled by the accept pump (listeners)
	eof      atomic.Bool
	eofSent  atomic.Bool
	// wake rings the watching eactor's worker doorbell when the pump
	// delivers data; it is swapped on connection handoff.
	wake atomic.Pointer[func()]

	// outbox feeds the write pump what the kernel refused; a full outbox
	// drops frames (slow-consumer policy), so the WRITER eactor never
	// blocks on a stalled connection.
	outbox chan []byte
	// unwritten counts frames accepted by Write that the pump has not
	// finished writing: queued in the outbox or inside conn.Write.
	unwritten atomic.Int32
	// wmu serialises Write. raw is nil for a conn without a file
	// descriptor; inline is its write callback, bound once in AddConn.
	wmu          sync.Mutex
	raw          syscall.RawConn
	inline       func(fd uintptr) bool
	pending      []byte
	quit         chan struct{}
	pumpOnce     sync.Once
	writeRunning atomic.Bool
	closeOnce    sync.Once
	closed       atomic.Bool

	// ready points at the watching READER's ready queue; queued dedups
	// the socket's membership in it.
	ready  atomic.Pointer[readyQueue]
	queued atomic.Bool
}

// Table registers sockets under small integer identifiers, the shared
// state of the networking eactors.
type Table struct {
	mu    sync.Mutex
	next  uint32
	socks map[uint32]*Socket

	// pumps counts the running pump goroutines of every socket the table
	// ever registered, so CloseAll can return after the last has exited.
	pumps sync.WaitGroup

	bufs  bufList
	stats tableStats
}

// NewTable creates an empty socket table.
func NewTable() *Table {
	return &Table{
		socks: make(map[uint32]*Socket),
		bufs:  make(bufList, freeBufs),
	}
}

// errUnknownSocket reports an operation on an unregistered id.
var errUnknownSocket = errors.New("netactors: unknown socket")

// AddConn registers a connection and returns its socket.
func (t *Table) AddConn(conn net.Conn) *Socket {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &Socket{
		id:     t.next,
		conn:   conn,
		stats:  &t.stats,
		pumps:  &t.pumps,
		bufs:   t.bufs,
		inbox:  make(chan []byte, inboxCap),
		outbox: make(chan []byte, inboxCap),
		quit:   make(chan struct{}),
	}
	if sc, ok := conn.(syscall.Conn); ok {
		s.raw, _ = sc.SyscallConn()
	}
	// One non-blocking write of s.pending, leaving the rest there; true
	// means RawConn.Write never waits for writability.
	s.inline = func(fd uintptr) bool {
		s.pending = s.pending[writeFD(fd, s.pending):]
		return true
	}
	t.socks[s.id] = s
	return s
}

// AddListener registers a listener and returns its socket.
func (t *Table) AddListener(lis net.Listener) *Socket {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &Socket{
		id:       t.next,
		lis:      lis,
		stats:    &t.stats,
		pumps:    &t.pumps,
		accepted: make(chan uint32, inboxCap),
		quit:     make(chan struct{}),
	}
	t.socks[s.id] = s
	return s
}

// Get looks a socket up by id.
func (t *Table) Get(id uint32) (*Socket, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.socks[id]
	return s, ok
}

// Close closes and removes a socket.
func (t *Table) Close(id uint32) error {
	t.mu.Lock()
	s, ok := t.socks[id]
	delete(t.socks, id)
	t.mu.Unlock()
	if !ok {
		return errUnknownSocket
	}
	s.shutdown()
	return nil
}

// shutdown closes the socket's resources and releases its pumps. Frames
// Write accepted get a short drain window first, so a final protocol
// message (e.g. an auth failure) reaches the peer before the reset. The
// window covers the frame the pump has already taken off the outbox and
// is still writing, not only the queued ones.
func (s *Socket) shutdown() {
	s.closed.Store(true)
	if s.conn != nil && s.outbox != nil {
		deadline := time.Now().Add(100 * time.Millisecond)
		for s.unwritten.Load() > 0 && s.writeRunning.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	s.closeOnce.Do(func() { close(s.quit) })
	if s.conn != nil {
		_ = s.conn.Close()
	}
	if s.lis != nil {
		_ = s.lis.Close()
	}
}

// CloseAll tears down every registered socket (shutdown path) and waits
// for their pump goroutines to exit: a pump holds its socket's wake
// function and through it the whole runtime, so one that outlived
// CloseAll would keep a stopped deployment's memory reachable.
func (t *Table) CloseAll() {
	t.mu.Lock()
	socks := make([]*Socket, 0, len(t.socks))
	for _, s := range t.socks {
		socks = append(socks, s)
	}
	t.socks = make(map[uint32]*Socket)
	t.mu.Unlock()
	for _, s := range socks {
		s.shutdown()
	}
	t.pumps.Wait()
}

// Len returns the number of registered sockets.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.socks)
}

// SetWake installs (or replaces) the watcher's doorbell function.
func (s *Socket) SetWake(wake func()) {
	if wake == nil {
		s.wake.Store(nil)
		return
	}
	s.wake.Store(&wake)
}

func (s *Socket) ringWake() {
	if fn := s.wake.Load(); fn != nil {
		(*fn)()
	}
}

// startReadPump launches the socket's read pump, idempotently: a
// goroutine parked in conn.Read on the runtime netpoller that queues each
// chunk in the inbox and marks the socket ready for its READER.
func (s *Socket) startReadPump() {
	s.pumpOnce.Do(func() {
		s.pumps.Add(1)
		go func() {
			defer s.pumps.Done()
			for {
				buf := s.bufs.get(readBufBytes)
				n, err := s.conn.Read(buf)
				if n > 0 {
					s.stats.bytesIn.Add(uint64(n))
					select {
					case s.inbox <- buf[:n]: // full queue applies backpressure
					case <-s.quit:
						return
					}
					s.markReady()
					s.ringWake()
				} else {
					s.bufs.put(buf)
				}
				if err != nil {
					s.eof.Store(true)
					s.markReady()
					s.ringWake()
					return
				}
			}
		}()
	})
}

// hasWork reports whether a READER drain would make progress on this
// socket.
func (s *Socket) hasWork() bool {
	return len(s.inbox) > 0 || (s.eof.Load() && !s.eofSent.Load())
}

// markReady queues the socket on its READER's ready queue (dedup'd by
// the queued flag), so the READER drains exactly the sockets with
// pending work instead of scanning every watch.
func (s *Socket) markReady() {
	rq := s.ready.Load()
	if rq == nil {
		return
	}
	if s.queued.CompareAndSwap(false, true) {
		rq.push(s)
	}
}

// SetReady installs the watching READER's ready queue and schedules a
// drain for any bytes that raced the watch.
func (s *Socket) SetReady(rq *readyQueue) {
	s.ready.Store(rq)
	if s.hasWork() {
		s.markReady()
	}
}

// unbindReady detaches the socket from rq on unwatch: the queue pointer
// is cleared only if no successor READER has already claimed the socket
// (connection handoff installs the new queue concurrently), and a
// queued-but-undrained socket is re-routed to its current queue.
func (s *Socket) unbindReady(rq *readyQueue) {
	s.ready.CompareAndSwap(rq, nil)
	if rq.remove(s) {
		s.queued.Store(false)
		if s.hasWork() {
			s.markReady()
		}
	}
}

// startAcceptPump launches the goroutine accepting connections for a
// watched listener, registering each in the table.
func (s *Socket) startAcceptPump(t *Table) {
	s.pumpOnce.Do(func() {
		s.pumps.Add(1)
		go func() {
			defer s.pumps.Done()
			for {
				conn, err := s.lis.Accept()
				if err != nil {
					s.eof.Store(true)
					s.ringWake()
					return
				}
				ns := t.AddConn(conn)
				t.stats.accepts.Add(1)
				select {
				case s.accepted <- ns.id:
				case <-s.quit: // nobody is left to take it
					return
				}
				s.ringWake()
			}
		}()
	})
}

// errBackpressure reports a frame dropped because the peer is not
// draining its connection.
var errBackpressure = errors.New("netactors: outbound frame dropped (slow consumer)")

// writeDeadline bounds each blocking write of the write pump.
const writeDeadline = time.Second

// ensureWritePump guarantees a pump goroutine is draining the outbox.
func (s *Socket) ensureWritePump() {
	if s.writeRunning.CompareAndSwap(false, true) {
		s.pumps.Add(1)
		go s.writePump()
	}
}

// writePump writes a connection's backlog and exits once the outbox is
// empty (a post-clear recheck catches a frame queued as it exits), the
// socket closes or the connection errors. It clears its deadline before
// counting its last frame written: an expired one fails inline writes.
func (s *Socket) writePump() {
	defer s.pumps.Done()
	for {
		select {
		case frame := <-s.outbox:
			_ = s.conn.SetWriteDeadline(time.Now().Add(writeDeadline))
			n, err := s.conn.Write(frame)
			s.bufs.put(frame)
			s.stats.bytesOut.Add(uint64(n))
			if err == nil && len(s.outbox) == 0 {
				_ = s.conn.SetWriteDeadline(time.Time{})
			}
			s.unwritten.Add(-1)
			if err != nil {
				s.writeRunning.Store(false)
				return // read side reports the failure as EOF
			}
		case <-s.quit:
			s.writeRunning.Store(false)
			return
		default:
			s.writeRunning.Store(false)
			if len(s.outbox) > 0 && s.writeRunning.CompareAndSwap(false, true) {
				continue
			}
			return
		}
	}
}

// Write sends data with one non-blocking write on the WRITER's worker,
// as the paper's WRITER does, when nothing is queued ahead of it. Only
// what the kernel refuses is copied for the write pump, whose blocking
// write also reports a failed connection. The check and the enqueue
// share wmu, so two WRITERs on one socket never interleave or reorder
// frames. A stalled peer costs a dropped frame, never a blocked eactor.
func (t *Table) Write(id uint32, data []byte) error {
	s, ok := t.Get(id)
	if !ok || s.conn == nil {
		return errUnknownSocket
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.raw != nil && s.unwritten.Load() == 0 {
		s.pending = data
		_ = s.raw.Write(s.inline) // a closed fd leaves it all pending
		t.stats.bytesOut.Add(uint64(len(data) - len(s.pending)))
		data, s.pending = s.pending, nil
		if len(data) == 0 {
			return nil
		}
	}
	frame := t.bufs.get(len(data))
	copy(frame, data)
	s.unwritten.Add(1) // before the enqueue, so the pump never decrements first
	select {
	case s.outbox <- frame:
		t.stats.queued.Add(1)
		s.ensureWritePump()
		return nil
	default:
		t.bufs.put(frame)
		s.unwritten.Add(-1)
		t.stats.dropped.Add(1)
		return errBackpressure
	}
}

// queueDepth sums the queued inbound and outbound frames of every
// registered socket — the aggregate per-connection backlog.
func (t *Table) queueDepth() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var depth int
	for _, s := range t.socks {
		depth += len(s.inbox) + len(s.outbox)
	}
	return uint64(depth)
}
