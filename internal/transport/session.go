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
	// Features are the capability bits offered in HELLO (FeatureKV,
	// FeatureS2S, ...). Must stay below 256 (see Hello).
	Features uint32
	// RecvWindow is the receive-buffer advertisement sent to the peer
	// (DefaultWindow when zero). v1 peers respond only to requests, so
	// it is informational, but it rides the wire for future streaming.
	RecvWindow uint32
	// Depth caps concurrent in-flight calls (default 64). It must stay
	// at or below half the server's replay window so resends always
	// land inside the dedup cache; Connect clamps it to 64 maximum
	// against DefaultReplayWindow-sized peers.
	Depth int
	// HandshakeTimeout bounds the HELLO/HELLO-ACK exchange (default 2s);
	// hitting it yields ErrLegacyPeer.
	HandshakeTimeout time.Duration
	// CallTimeout bounds each Wait (default 5s).
	CallTimeout time.Duration
	// ResendInterval is the at-least-once retransmit period inside a
	// Wait (default CallTimeout/4). The peer's replay window absorbs
	// the duplicates.
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

// Call is one in-flight request. The issuing goroutine waits on it via
// Session.Wait (or Done + Response for select-based callers).
type Call struct {
	// Opaque is the correlation tag the session assigned.
	Opaque uint32

	done      chan struct{}
	frame     []byte // full encoded request, retained for resends
	size      int    // window bytes reserved
	completed bool   // guarded by the session mutex
	resp      Frame  // payload owned by the call
	err       error
}

// Done is closed when the response (or a terminal error) arrived.
func (c *Call) Done() <-chan struct{} { return c.done }

// Response returns the outcome; call only after Done is closed.
func (c *Call) Response() (Frame, error) { return c.resp, c.err }

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
// use by any number of issuing goroutines; one background reader
// completes calls.
type Session struct {
	conn net.Conn
	opts SessionOptions

	window       *Window
	peerFeatures uint32

	depth      chan struct{} // in-flight call slots
	failCh     chan struct{} // closed once, on terminal failure
	readerDone chan struct{}

	mu         sync.Mutex
	pending    map[uint32]*Call
	nextOpaque uint32
	wbuf       []byte // encode scratch, guarded by mu
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
		window:       NewWindow(int(ack.Credit)),
		peerFeatures: ack.Opaque,
		depth:        make(chan struct{}, opts.Depth),
		failCh:       make(chan struct{}),
		readerDone:   make(chan struct{}),
		pending:      make(map[uint32]*Call),
	}
	go s.reader()
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

// Window returns the sender-side flow-control window (peer-advertised).
func (s *Session) Window() *Window { return s.window }

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

// Issue sends one request frame of the given type, blocking while the
// pipeline is at Depth or the peer's byte window is exhausted. The
// payload is copied before Issue returns.
func (s *Session) Issue(t Type, payload []byte) (*Call, error) {
	select {
	case s.depth <- struct{}{}:
	case <-s.failCh:
		return nil, s.failure()
	}
	size := HeaderSize + len(payload)
	if err := s.window.Reserve(size); err != nil {
		<-s.depth
		return nil, err
	}
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
	c := &Call{Opaque: s.nextOpaque, done: make(chan struct{}), size: size}
	frame, err := AppendFrame(s.wbuf[:0], Frame{Type: t, Opaque: c.Opaque, Payload: payload})
	if err != nil {
		s.mu.Unlock()
		s.window.Release(size)
		<-s.depth
		return nil, err
	}
	s.wbuf = frame
	c.frame = append([]byte(nil), frame...)
	s.pending[c.Opaque] = c
	werr := s.writeLocked(c.frame)
	s.mu.Unlock()
	s.issued.Add(1)
	if werr != nil {
		s.fail(werr) // completes c (and every peer) with the error
	}
	return c, nil
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

// Wait blocks until c completes, retransmitting on the resend interval
// (at-least-once) and abandoning the call at the call timeout.
func (s *Session) Wait(c *Call) (Frame, error) {
	timeout := time.NewTimer(s.opts.CallTimeout)
	defer timeout.Stop()
	resend := time.NewTicker(s.opts.ResendInterval)
	defer resend.Stop()
	for {
		select {
		case <-c.done:
			return c.resp, c.err
		case <-resend.C:
			s.resend(c)
		case <-timeout.C:
			s.complete(c, Frame{}, ErrTimeout)
			<-c.done
			return c.resp, c.err
		}
	}
}

// Call issues and waits in one step.
func (s *Session) Call(t Type, payload []byte) (Frame, error) {
	c, err := s.Issue(t, payload)
	if err != nil {
		return Frame{}, err
	}
	return s.Wait(c)
}

// resend retransmits a still-pending call's frame.
func (s *Session) resend(c *Call) {
	s.mu.Lock()
	if c.completed || s.failErr != nil {
		s.mu.Unlock()
		return
	}
	err := s.writeLocked(c.frame)
	s.mu.Unlock()
	s.resent.Add(1)
	if err != nil {
		s.fail(err)
	}
}

// complete finishes a call exactly once, returning its window bytes and
// depth slot.
func (s *Session) complete(c *Call, resp Frame, err error) {
	s.mu.Lock()
	if c.completed {
		s.mu.Unlock()
		return
	}
	c.completed = true
	delete(s.pending, c.Opaque)
	c.resp = resp
	c.err = err
	s.mu.Unlock()
	close(c.done)
	s.window.Release(c.size)
	<-s.depth
	s.completed.Add(1)
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
// reader).
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.failErr != nil {
		s.mu.Unlock()
		return
	}
	s.failErr = err
	calls := make([]*Call, 0, len(s.pending))
	for _, c := range s.pending {
		calls = append(calls, c)
	}
	s.mu.Unlock()
	close(s.failCh)
	s.window.Fail(err)
	for _, c := range calls {
		s.complete(c, Frame{}, err)
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
					s.mu.Unlock()
					if c != nil {
						f.Payload = append([]byte(nil), f.Payload...)
						s.complete(c, f, nil)
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
// for the reader to unwind. Pending calls complete with
// ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.failErr == nil {
		if goaway, err := AppendFrame(s.wbuf[:0], Frame{Type: TGoAway}); err == nil {
			s.wbuf = goaway
			_ = s.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			_, _ = s.conn.Write(goaway)
		}
	}
	s.mu.Unlock()
	s.fail(ErrSessionClosed)
	<-s.readerDone
	return nil
}
