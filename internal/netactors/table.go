package netactors

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
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
// copied the chunk into its send stage; Write takes one per outbound
// frame and the write pump hands it back after conn.Write. Only chunks
// and frames in flight hold buffers, so idle sockets hold none beyond
// the one a parked pump reads into.
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

	// outbox feeds the write pump; a full outbox means the peer is not
	// draining and frames are dropped (slow-consumer policy), so the
	// WRITER eactor never blocks on a stalled connection.
	outbox chan []byte
	// unwritten counts frames accepted by Write that the pump has not
	// finished writing: queued in the outbox or inside conn.Write.
	unwritten    atomic.Int32
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

// ID returns the socket identifier.
func (s *Socket) ID() uint32 { return s.id }

// Table registers sockets under small integer identifiers, the shared
// state of the networking eactors.
type Table struct {
	mu    sync.Mutex
	next  uint32
	socks map[uint32]*Socket

	writeDeadline time.Duration

	// pumps counts the running pump goroutines of every socket the table
	// ever registered, so CloseAll can return after the last has exited.
	pumps sync.WaitGroup

	bufs  bufList
	stats tableStats
}

// NewTable creates an empty socket table.
func NewTable() *Table {
	return &Table{
		socks:         make(map[uint32]*Socket),
		writeDeadline: time.Second,
		bufs:          make(bufList, freeBufs),
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

// writePumpIdle is how long a write pump lingers without traffic before
// exiting. Pumps are restartable (ensureWritePump), so an idle
// connection costs zero goroutines — at 10k mostly-idle connections the
// lingering pumps would otherwise dominate the goroutine count.
const writePumpIdle = 250 * time.Millisecond

// ensureWritePump guarantees a pump goroutine is draining the outbox.
func (s *Socket) ensureWritePump(deadline time.Duration) {
	if s.writeRunning.CompareAndSwap(false, true) {
		s.pumps.Add(1)
		go s.writePump(deadline)
	}
}

// writePump performs the blocking writes for a connection, exiting when
// the socket closes, the connection errors, or the outbox stays empty
// for writePumpIdle (the frame-arrives-as-we-exit race is closed by a
// post-clear recheck and by Write's enqueue-then-ensure ordering).
func (s *Socket) writePump(deadline time.Duration) {
	defer s.pumps.Done()
	idle := time.NewTimer(writePumpIdle)
	defer idle.Stop()
	for {
		select {
		case frame := <-s.outbox:
			if deadline > 0 {
				_ = s.conn.SetWriteDeadline(time.Now().Add(deadline))
			}
			n, err := s.conn.Write(frame)
			s.bufs.put(frame)
			s.unwritten.Add(-1)
			s.stats.bytesOut.Add(uint64(n))
			if err != nil {
				s.writeRunning.Store(false)
				return // read side reports the failure as EOF
			}
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(writePumpIdle)
		case <-s.quit:
			s.writeRunning.Store(false)
			return
		case <-idle.C:
			s.writeRunning.Store(false)
			// A frame may have been enqueued between the timer firing
			// and the flag clearing; reclaim the pump role or leave it
			// to the Write that lost the race.
			if len(s.outbox) > 0 && s.writeRunning.CompareAndSwap(false, true) {
				idle.Reset(writePumpIdle)
				continue
			}
			return
		}
	}
}

// Write queues a copy of data for the connection's write pump. A
// stalled peer costs a dropped frame, never a blocked eactor (the
// paper's WRITER uses non-blocking send syscalls for the same reason).
func (t *Table) Write(id uint32, data []byte) error {
	s, ok := t.Get(id)
	if !ok || s.conn == nil {
		return errUnknownSocket
	}
	frame := t.bufs.get(len(data))
	copy(frame, data)
	s.unwritten.Add(1) // before the enqueue, so the pump never decrements first
	select {
	case s.outbox <- frame:
		s.ensureWritePump(t.writeDeadline)
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
