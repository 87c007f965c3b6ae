package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLegacyPeer reports that the remote end does not speak the framed
// protocol: it closed the connection on our HELLO (a legacy KV server
// rejecting the unknown opcode), answered with non-frame bytes, or
// stayed silent past the handshake deadline. No client in this
// repository speaks another protocol, so it is a terminal dial error.
var ErrLegacyPeer = errors.New("transport: peer does not speak the framed protocol")

// ErrSessionClosed reports an operation on a closed session.
var ErrSessionClosed = errors.New("transport: session closed")

// ErrGoAway reports that the peer terminated the session.
var ErrGoAway = errors.New("transport: peer sent goaway")

// ErrTimeout reports that a call's response did not arrive within the
// session's call timeout. The request may or may not have executed;
// the protocol is at-least-once and the peer's replay window dedups
// re-issues, so callers may retry.
var ErrTimeout = errors.New("transport: call timed out")

// SessionOptions configures a client Session.
type SessionOptions struct {
	// Features are the capability bits offered in HELLO (FeatureKV).
	// Must stay below 256 (see Hello).
	Features uint32
	// RecvWindow is the receive-buffer advertisement sent to the peer
	// (DefaultWindow when zero). v1 peers respond only to requests, so
	// it is informational, but it rides the wire for future streaming.
	RecvWindow uint32
	// Depth caps concurrent in-flight calls (default 64). It must stay
	// at or below half the server's replay window so resends always
	// land inside the dedup cache; the default is half of
	// DefaultReplayWindow.
	Depth int
	// HandshakeTimeout bounds the HELLO/HELLO-ACK exchange (default 2s);
	// hitting it yields ErrLegacyPeer.
	HandshakeTimeout time.Duration
	// CallTimeout bounds each call from its Issue (default 5s): a call
	// still unanswered that long after Issue completes with ErrTimeout,
	// whether or not anyone is waiting on it yet.
	CallTimeout time.Duration
	// ResendInterval is the at-least-once retransmit period (default
	// CallTimeout/4), also counted from Issue: a call unanswered that
	// long after its last transmission is sent again. The peer's replay
	// window absorbs the duplicates.
	ResendInterval time.Duration
	// ReadBuf sizes the reader's chunk buffer (default 64 KiB).
	ReadBuf int
}

func (o *SessionOptions) defaults() {
	if o.Depth <= 0 {
		o.Depth = 64
	}
	if o.RecvWindow == 0 {
		o.RecvWindow = DefaultWindow
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.ResendInterval <= 0 {
		o.ResendInterval = o.CallTimeout / 4
	}
	if o.ReadBuf <= 0 {
		o.ReadBuf = 64 << 10
	}
}

// Call is one in-flight request. Its outcome is collected exactly once:
// by Wait (Call.Wait or Session.Wait), or by a receive from Done
// followed by Response. Wait hands the Call back to its session for
// reuse, so the Call must not be touched after Wait returns; the
// response payload it returned stays the caller's.
type Call struct {
	// Opaque is the correlation tag the session assigned.
	Opaque uint32

	sess  *Session
	done  chan struct{} // one token per completion, reused with the Call
	frame []byte        // encoded request kept for resends, reused with the Call
	size  int           // window bytes reserved
	// issued and sent are session-clock readings (Session.now), guarded
	// by the session mutex.
	issued, sent time.Duration
	resp         Frame // payload owned by the caller
	err          error
}

// Wait blocks until the call completes — resends and the timeout run on
// the session clock, not here — and returns the outcome. The Call goes
// back to its session for reuse.
func (c *Call) Wait() (Frame, error) {
	<-c.done
	resp, err := c.resp, c.err
	c.sess.recycle(c)
	return resp, err
}

// SessionStats snapshots a session's counters.
type SessionStats struct {
	// Issued / Completed / Resent count calls and retransmits.
	Issued, Completed, Resent uint64
	// WindowLimit is the peer's advertised receive budget;
	// MaxInFlightBytes the high-water mark of bytes we kept outstanding
	// against it (always <= WindowLimit — the flow-control invariant).
	WindowLimit, MaxInFlightBytes int
}

// Session is the client engine of the framed protocol: it multiplexes
// concurrent calls over one connection, correlating out-of-order
// responses by opaque, throttling issues against the peer's advertised
// receive window, and retransmitting unanswered requests so the peer's
// replay window can enforce exactly-once effect. Safe for concurrent
// use by any number of issuing goroutines. Two background goroutines
// serve it whatever its Depth: the reader completes calls, and the
// session clock (sweep) resends and expires them.
type Session struct {
	conn  net.Conn
	opts  SessionOptions
	start time.Time // origin of the session clock

	window       *Window
	peerFeatures uint32

	depth       chan struct{} // in-flight call slots
	failCh      chan struct{} // closed once, on terminal failure
	readerDone  chan struct{}
	sweeperDone chan struct{}

	mu         sync.Mutex
	pending    map[uint32]*Call
	free       []*Call // collected calls for reuse, at most Depth
	nextOpaque uint32
	failErr    error

	issued, completed, resent atomic.Uint64
}

// Connect performs the HELLO handshake on conn and starts the session.
// A peer that does not speak the protocol yields ErrLegacyPeer (the
// conn is then closed). On success the session owns conn.
func Connect(conn net.Conn, opts SessionOptions) (*Session, error) {
	opts.defaults()
	hello, err := Hello(opts.Features, opts.RecvWindow)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opts.HandshakeTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	buf, err := AppendFrame(nil, hello)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(buf); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("%w (hello write: %v)", ErrLegacyPeer, err)
	}
	ack, err := awaitAck(conn, opts.ReadBuf)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if ack.Flags != Version1 {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: peer negotiated unsupported version %d", ack.Flags)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	s := &Session{
		conn:         conn,
		opts:         opts,
		start:        time.Now(),
		window:       NewWindow(int(ack.Credit)),
		peerFeatures: ack.Opaque,
		depth:        make(chan struct{}, opts.Depth),
		failCh:       make(chan struct{}),
		readerDone:   make(chan struct{}),
		sweeperDone:  make(chan struct{}),
		pending:      make(map[uint32]*Call),
		free:         make([]*Call, 0, opts.Depth),
	}
	go s.reader()
	go s.sweep()
	return s, nil
}

// awaitAck reads frames until HELLO-ACK; every legacy behaviour —
// close, silence, non-frame bytes — maps to ErrLegacyPeer.
func awaitAck(conn net.Conn, readBuf int) (Frame, error) {
	var sc Scanner
	buf := make([]byte, readBuf)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			sc.Feed(buf[:n])
			f, _, ok, ferr := sc.Next()
			if ferr != nil {
				return Frame{}, fmt.Errorf("%w (%v)", ErrLegacyPeer, ferr)
			}
			if ok {
				switch f.Type {
				case THelloAck:
					return f, nil
				case TGoAway:
					return Frame{}, fmt.Errorf("transport: handshake refused: %s", f.Payload)
				default:
					return Frame{}, fmt.Errorf("%w (unexpected %s during handshake)", ErrLegacyPeer, f.Type)
				}
			}
		}
		if err != nil {
			return Frame{}, fmt.Errorf("%w (%v)", ErrLegacyPeer, err)
		}
	}
}

// PeerFeatures returns the feature bits the peer granted.
func (s *Session) PeerFeatures() uint32 { return s.peerFeatures }

// Stats snapshots the session counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Issued:           s.issued.Load(),
		Completed:        s.completed.Load(),
		Resent:           s.resent.Load(),
		WindowLimit:      s.window.Limit(),
		MaxInFlightBytes: s.window.MaxInFlight(),
	}
}

// now reads the session clock.
func (s *Session) now() time.Duration { return time.Since(s.start) }

// Issue sends one request frame of the given type, blocking while the
// pipeline is at Depth or the peer's byte window is exhausted. The
// payload is copied before Issue returns. The call's timeout and resend
// clock start here.
func (s *Session) Issue(t Type, payload []byte) (*Call, error) {
	return s.IssueParts(t, payload)
}

// IssueParts is Issue for a payload given in pieces: they are copied,
// in order, straight into the call's frame, so a caller holding a
// header and separate body slices never assembles them first.
func (s *Session) IssueParts(t Type, parts ...[]byte) (*Call, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if err := checkFrame(t, n); err != nil {
		return nil, err
	}
	select {
	case s.depth <- struct{}{}:
	case <-s.failCh:
		return nil, s.failure()
	}
	size := HeaderSize + n
	if err := s.window.Reserve(size); err != nil {
		<-s.depth
		return nil, err
	}
	now := s.now()
	s.mu.Lock()
	if s.failErr != nil {
		err := s.failErr
		s.mu.Unlock()
		s.window.Release(size)
		<-s.depth
		return nil, err
	}
	s.nextOpaque++
	if s.nextOpaque == 0 { // zero stays reserved as "no opaque"
		s.nextOpaque = 1
	}
	c := s.callLocked()
	c.Opaque, c.size, c.issued, c.sent = s.nextOpaque, size, now, now
	c.frame = appendHeader(c.frame[:0], Frame{Type: t, Opaque: c.Opaque}, n)
	for _, p := range parts {
		c.frame = append(c.frame, p...)
	}
	s.pending[c.Opaque] = c
	werr := s.writeLocked(c.frame)
	s.mu.Unlock()
	s.issued.Add(1)
	if werr != nil {
		s.fail(werr) // completes c (and every peer) with the error
	}
	return c, nil
}

// callLocked takes a collected Call for reuse, or builds one. s.mu is
// held.
func (s *Session) callLocked() *Call {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c
	}
	return &Call{sess: s, done: make(chan struct{}, 1)}
}

// recycle returns a collected Call to the free list (bounded by Depth;
// an over-large frame buffer is dropped rather than kept).
func (s *Session) recycle(c *Call) {
	c.resp, c.err = Frame{}, nil
	if cap(c.frame) > maxReuse {
		c.frame = nil
	}
	s.mu.Lock()
	if len(s.free) < cap(s.free) {
		s.free = append(s.free, c)
	}
	s.mu.Unlock()
}

// writeLocked writes one frame under s.mu with the call-timeout write
// deadline.
func (s *Session) writeLocked(frame []byte) error {
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.opts.CallTimeout)); err != nil {
		return err
	}
	_, err := s.conn.Write(frame)
	return err
}

// Wait blocks until c completes and returns its outcome; see Call.Wait.
func (s *Session) Wait(c *Call) (Frame, error) { return c.Wait() }

// Call issues and waits in one step.
func (s *Session) Call(t Type, payload []byte) (Frame, error) {
	c, err := s.Issue(t, payload)
	if err != nil {
		return Frame{}, err
	}
	return c.Wait()
}

// finish hands c its outcome. The caller has removed c from pending
// under s.mu, so nothing else touches it; the window bytes and depth
// slot go back before the waiter wakes, because the waiter may recycle
// c at once.
func (s *Session) finish(c *Call, resp Frame, err error) {
	c.resp, c.err = resp, err
	s.window.Release(c.size)
	<-s.depth
	s.completed.Add(1)
	c.done <- struct{}{}
}

// sweepEvery is the session clock's tick: a quarter of the shorter of
// the resend interval and the call timeout, so each fires at most a
// quarter late.
func (s *Session) sweepEvery() time.Duration {
	if d := min(s.opts.ResendInterval, s.opts.CallTimeout) / 4; d > 0 {
		return d
	}
	return time.Millisecond
}

// sweep is the session clock. On every tick it retransmits each call
// unanswered for ResendInterval since its last transmission, and fails
// each call older than CallTimeout with ErrTimeout. Both count from
// Issue, so a call nobody waits on yet is resent and expires all the
// same, and Wait needs no timer of its own.
func (s *Session) sweep() {
	defer close(s.sweeperDone)
	tick := time.NewTicker(s.sweepEvery())
	defer tick.Stop()
	var expired []*Call
	for {
		select {
		case <-tick.C:
		case <-s.failCh:
			return
		}
		now := s.now()
		var werr error
		s.mu.Lock()
		for op, c := range s.pending {
			switch {
			case now-c.issued >= s.opts.CallTimeout:
				delete(s.pending, op)
				expired = append(expired, c)
			case now-c.sent >= s.opts.ResendInterval && werr == nil:
				werr = s.writeLocked(c.frame)
				c.sent = now
				s.resent.Add(1)
			}
		}
		s.mu.Unlock()
		for i, c := range expired {
			s.finish(c, Frame{}, ErrTimeout)
			expired[i] = nil
		}
		expired = expired[:0]
		if werr != nil {
			s.fail(werr)
		}
	}
}

// failure returns the terminal error (after failCh closed).
func (s *Session) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr == nil {
		return ErrSessionClosed
	}
	return s.failErr
}

// fail poisons the session: every pending and future call errors, the
// window unblocks, and the connection closes (which also unwinds the
// reader; the sweeper leaves on failCh).
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.failErr != nil {
		s.mu.Unlock()
		return
	}
	s.failErr = err
	calls := make([]*Call, 0, len(s.pending))
	for op, c := range s.pending {
		calls = append(calls, c)
		delete(s.pending, op)
	}
	s.mu.Unlock()
	close(s.failCh)
	s.window.Fail(err)
	for _, c := range calls {
		s.finish(c, Frame{}, err)
	}
	_ = s.conn.Close()
}

// reader drains the connection, completing calls by opaque. Responses
// for unknown opaques (late duplicates of abandoned calls) are dropped.
func (s *Session) reader() {
	defer close(s.readerDone)
	buf := make([]byte, s.opts.ReadBuf)
	var sc Scanner
	for {
		n, err := s.conn.Read(buf)
		if n > 0 {
			sc.Feed(buf[:n])
			for {
				f, _, ok, ferr := sc.Next()
				if ferr != nil {
					s.fail(ferr)
					return
				}
				if !ok {
					break
				}
				switch f.Type {
				case TResponse:
					s.mu.Lock()
					c := s.pending[f.Opaque]
					delete(s.pending, f.Opaque)
					s.mu.Unlock()
					if c != nil {
						// The caller keeps the reply; the scanner's buffer
						// is reused for the next frame.
						f.Payload = append([]byte(nil), f.Payload...)
						s.finish(c, f, nil)
					}
				case TGoAway:
					s.fail(ErrGoAway)
					return
				default:
					// TCredit and future types: ignored in v1.
				}
			}
		}
		if err != nil {
			s.fail(fmt.Errorf("%w (%v)", ErrSessionClosed, err))
			return
		}
	}
}

// Close sends a best-effort GOAWAY, tears the session down and waits
// for the reader and the session clock to unwind. Pending calls
// complete with ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.failErr == nil {
		_ = s.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_, _ = s.conn.Write(appendHeader(nil, Frame{Type: TGoAway}, 0))
	}
	s.mu.Unlock()
	s.fail(ErrSessionClosed)
	<-s.readerDone
	<-s.sweeperDone
	return nil
}
