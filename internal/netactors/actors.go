package netactors

import (
	"net"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/trace"
)

// dialTimeout bounds OPENER dial attempts.
const dialTimeout = 2 * time.Second

// drainBatch bounds how many chunks a READER forwards per socket per
// body invocation, keeping bodies short as the actor model demands.
const drainBatch = 16

// readyDrainBudget bounds the ready-queue pops per READER invocation, so
// one invocation moves at most readyDrainBudget×drainBatch chunks.
const readyDrainBudget = 64

// System owns the socket table and builds the five networking eactor
// specs. All of them must be deployed untrusted (Worker placement is
// free, Enclave must stay empty), since they perform system calls on
// behalf of enclaved eactors.
type System struct {
	table *Table
}

// NewSystem creates a networking system with an empty socket table.
func NewSystem() *System { return &System{table: NewTable()} }

// Table exposes the socket table (for custom network actors, as the
// paper's XMPP service builds).
func (s *System) Table() *Table { return s.table }

// Shutdown closes every socket and waits for their pumps; call after the
// runtime has stopped.
func (s *System) Shutdown() { s.table.CloseAll() }

// reply encodes m and sends it on ep. The returned error is typed:
// core.ErrMailboxFull / core.ErrPoolEmpty mean a transient shortage the
// caller may retry on a later invocation; anything else is an encoding
// failure.
func reply(ep *core.Endpoint, m Msg, scratch *[]byte) error {
	buf, err := m.AppendTo((*scratch)[:0])
	if err != nil {
		return err
	}
	*scratch = buf
	return ep.Send(buf)
}

// OpenerSpec builds the OPENER eactor serving the named channels: it
// creates server sockets (MsgListen) and client sockets (MsgDial) and
// returns their identifiers (MsgOpenOK/MsgOpenErr). A dropped open
// result would wedge the requester, so each channel's results go out
// through its own stage, which keeps what a full channel refuses.
func (s *System) OpenerSpec(name string, worker int, channels ...string) core.Spec {
	table := s.table
	var eps []*core.Endpoint
	stages := make([]core.SendStage, len(channels))
	recvBuf := make([]byte, core.DefaultNodePayload)
	return core.Spec{
		Name:   name,
		Worker: worker,
		Init: func(self *core.Self) error {
			for _, ch := range channels {
				ep, err := self.Channel(ch)
				if err != nil {
					return err
				}
				eps = append(eps, ep)
			}
			return nil
		},
		Body: func(self *core.Self) {
			for i, ep := range eps {
				if n, ok, err := ep.Recv(recvBuf); err == nil && ok {
					if msg, err := ParseMsg(recvBuf[:n]); err == nil && (msg.Type == MsgListen || msg.Type == MsgDial) {
						self.Progress()
						table.open(msg).StageOn(&stages[i])
					}
				}
				self.Flush(&stages[i], ep)
			}
		},
	}
}

// open serves one OPENER request (MsgListen or MsgDial) and returns its
// result.
func (t *Table) open(msg Msg) Msg {
	if msg.Type == MsgListen {
		lis, err := net.Listen("tcp", string(msg.Data))
		if err != nil {
			return Msg{Type: MsgOpenErr, Data: []byte(err.Error())}
		}
		// Return the bound address so ":0" listens work.
		return Msg{Type: MsgOpenOK, Sock: t.AddListener(lis).id, Data: []byte(lis.Addr().String())}
	}
	conn, err := net.DialTimeout("tcp", string(msg.Data), dialTimeout)
	if err != nil {
		return Msg{Type: MsgOpenErr, Data: []byte(err.Error())}
	}
	t.stats.dials.Add(1)
	return Msg{Type: MsgOpenOK, Sock: t.AddConn(conn).id}
}

// AccepterSpec builds the ACCEPTER eactor: clients watch a listener
// socket (MsgWatch) and receive MsgAccepted for every new connection.
// Each watch stages its announcements, so the ones a full channel
// refuses go first next round and no accepted socket is lost.
func (s *System) AccepterSpec(name string, worker int, channels ...string) core.Spec {
	table := s.table
	type watch struct {
		ep    *core.Endpoint
		sock  *Socket
		stage core.SendStage
	}
	var eps []*core.Endpoint
	var watches []*watch
	recvBuf := make([]byte, core.DefaultNodePayload)
	return core.Spec{
		Name:   name,
		Worker: worker,
		Init: func(self *core.Self) error {
			for _, ch := range channels {
				ep, err := self.Channel(ch)
				if err != nil {
					return err
				}
				eps = append(eps, ep)
			}
			return nil
		},
		Body: func(self *core.Self) {
			for _, ep := range eps {
				n, ok, err := ep.Recv(recvBuf)
				if err != nil || !ok {
					continue
				}
				msg, err := ParseMsg(recvBuf[:n])
				if err != nil || msg.Type != MsgWatch {
					continue
				}
				if sock, ok := table.Get(msg.Sock); ok && sock.lis != nil {
					sock.SetWake(self.Waker())
					sock.startAcceptPump(table)
					watches = append(watches, &watch{ep: ep, sock: sock})
					self.Progress()
				}
			}
			for _, w := range watches {
			fill:
				for w.stage.Len() < drainBatch {
					select {
					case id := <-w.sock.accepted:
						(Msg{Type: MsgAccepted, Sock: id}).StageOn(&w.stage)
					default:
						break fill
					}
				}
				self.Flush(&w.stage, w.ep)
			}
		},
	}
}

// readWatch is one READER-watched connection socket.
type readWatch struct {
	ep   *core.Endpoint
	sock *Socket
	// held is the stage holding the frames its forwarding channel
	// refused, retried first; while it is set the watch belongs to the
	// READER's backlog rather than the ready queue. It is nil otherwise,
	// so an idle watch carries no stage memory.
	held *core.SendStage
	tick uint32 // per-socket trace sampling counter (trace.MaybeRoot)
}

// ReaderSpec builds the READER eactor: clients watch connection sockets
// (MsgWatch) and receive their inbound bytes as MsgData, then a final
// MsgClosed at EOF. Inbound chunks are forwarded through the channel's
// batch fast path: one SendBatch (one pool trip, one mbox CAS, one
// doorbell) per socket per invocation instead of one per chunk.
//
// The READER drains only ready sockets. A socket's read pump queues it
// (Socket.markReady) exactly when its inbox gains bytes or hits EOF, and
// the body pops and drains exactly the queued sockets, so an idle watch
// costs no drain work however many there are. Sockets whose forwarding
// channel filled (held frames) move to a small backlog scanned every
// invocation: the bounded few under backpressure, not the watch set.
func (s *System) ReaderSpec(name string, worker int, channels ...string) core.Spec {
	table := s.table
	rq := newReadyQueue()
	watches := make(map[uint32]*readWatch)
	var backlog []*readWatch
	var eps []*core.Endpoint
	var scratch []byte
	var stage core.SendStage
	recvBufs, recvLens := core.BatchBufs(drainBatch, core.DefaultNodePayload)
	return core.Spec{
		Name:   name,
		Worker: worker,
		Init: func(self *core.Self) error {
			eps = eps[:0]
			for _, ch := range channels {
				ep, err := self.Channel(ch)
				if err != nil {
					return err
				}
				eps = append(eps, ep)
			}
			return nil
		},
		Body: func(self *core.Self) {
			// Control traffic: watch/unwatch.
			for _, ep := range eps {
				n, _ := self.RecvBatch(ep, recvBufs, recvLens)
				for i := 0; i < n; i++ {
					msg, err := ParseMsg(recvBufs[i][:recvLens[i]])
					if err != nil {
						continue
					}
					switch msg.Type {
					case MsgWatch:
						if sock, ok := table.Get(msg.Sock); ok && sock.conn != nil {
							sock.SetWake(self.Waker())
							watches[sock.id] = &readWatch{ep: ep, sock: sock}
							// Install the queue before starting the pump so
							// bytes racing the watch have a landing spot.
							sock.SetReady(rq)
							sock.startReadPump()
							self.Progress()
						}
					case MsgUnwatch:
						if w, ok := watches[msg.Sock]; ok && w.ep == ep {
							delete(watches, msg.Sock)
							w.sock.unbindReady(rq)
							self.Progress()
						}
					}
				}
			}

			// Backpressured sockets: frames a full forwarding channel
			// refused retry until the consumer drains.
			live := backlog[:0]
			for _, w := range backlog {
				if watches[w.sock.id] != w {
					continue // unwatched while backlogged
				}
				if !s.drainSocket(self, w, &stage, &scratch) {
					delete(watches, w.sock.id) // MsgClosed delivered
					continue
				}
				if w.held != nil {
					live = append(live, w)
					continue
				}
				if w.sock.hasWork() {
					w.sock.markReady()
				}
			}
			backlog = live

			// Ready sockets: exactly the ones the pumps queued.
			for popped := 0; popped < readyDrainBudget; popped++ {
				sock := rq.pop()
				if sock == nil {
					break
				}
				sock.queued.Store(false)
				w, ok := watches[sock.id]
				if !ok {
					// Not (or no longer) ours — a handoff raced the drain.
					// Its current owner's queue gets it back.
					if sock.hasWork() {
						sock.markReady()
					}
					continue
				}
				if w.held != nil {
					continue // the backlog pass owns this socket
				}
				if !s.drainSocket(self, w, &stage, &scratch) {
					delete(watches, sock.id) // MsgClosed delivered
					continue
				}
				if w.held != nil {
					backlog = append(backlog, w)
					continue
				}
				if sock.hasWork() {
					sock.markReady() // partial drain: stay scheduled
				}
			}
		},
	}
}

// drainSocket forwards up to drainBatch chunks from the socket's inbox
// as one batched send, returning false once the socket is finished
// (MsgClosed sent).
func (s *System) drainSocket(self *core.Self, w *readWatch, stage *core.SendStage, scratch *[]byte) bool {
	s.table.stats.drains.Add(1)
	// Frames a full channel refused go first, in order; until they are
	// through, new chunks wait in the inbox.
	if w.held != nil {
		self.Flush(w.held, w.ep)
		if w.held.Len() > 0 {
			return true
		}
		w.held = nil
	}
	// The READER is the wire ingress, so this is where sampled traces
	// are rooted: 1-in-SampleEvery inbound bursts get a fresh trace whose
	// root span (KindNetRead) covers the drain and the forwarding send.
	// The context is adopted into the actor scope so SendBatch stamps it
	// into the outgoing frames, then cleared — causality travels with the
	// message, not the READER.
	tr := self.Tracer()
	var netCtx trace.Ctx
	var drainStart time.Time
	if tr != nil && len(w.sock.inbox) > 0 {
		if ctx, ok := tr.MaybeRoot(&w.tick); ok {
			ctx.Span = tr.NextSpan()
			netCtx = ctx
			drainStart = time.Now()
		}
	}
	maxChunk := MaxData(w.ep.MaxPayload())
	for stage.Len() < drainBatch {
		var chunk []byte
		select {
		case chunk = <-w.sock.inbox:
		default:
		}
		if chunk == nil {
			break
		}
		// Split oversized chunks to the channel's frame limit.
		for rest := chunk; len(rest) > 0; {
			emit := rest
			if len(emit) > maxChunk {
				emit = rest[:maxChunk]
			}
			(Msg{Type: MsgData, Sock: w.sock.id, Data: emit}).StageOn(stage)
			rest = rest[len(emit):]
		}
		// The stage holds a copy now; the read buffer goes back.
		w.sock.bufs.put(chunk)
	}
	if stage.Len() > 0 {
		if netCtx.Traced() {
			self.TraceScope().Adopt(netCtx)
		}
		self.Flush(stage, w.ep)
		if netCtx.Traced() {
			tr.Record(self.WorkerID(), trace.Span{
				TraceID: netCtx.TraceID, ID: netCtx.Span,
				Kind: trace.KindNetRead, Ref: w.sock.id,
				Start: drainStart.UnixNano(), Dur: int64(time.Since(drainStart)),
			})
			self.TraceScope().Clear()
		}
		if stage.Len() > 0 {
			// The watch keeps the refused frames, slots and all; the
			// READER's stage starts the next socket empty.
			w.held = new(core.SendStage)
			*w.held, *stage = *stage, core.SendStage{}
			return true
		}
	}
	if w.sock.eof.Load() && !w.sock.eofSent.Load() && len(w.sock.inbox) == 0 {
		if reply(w.ep, Msg{Type: MsgClosed, Sock: w.sock.id}, scratch) == nil {
			w.sock.eofSent.Store(true)
			self.Progress()
			return false
		}
	}
	return true
}

// WriterSpec builds the WRITER eactor: it writes MsgData payloads to
// their sockets, draining each channel through the batch fast path. It
// also honours MsgClose, so a sender can order a final frame and the
// close on one FIFO channel (handshake-failure teardown needs exactly
// that ordering).
func (s *System) WriterSpec(name string, worker int, channels ...string) core.Spec {
	table := s.table
	var eps []*core.Endpoint
	recvBufs, recvLens := core.BatchBufs(drainBatch, core.DefaultNodePayload)
	return core.Spec{
		Name:   name,
		Worker: worker,
		Init: func(self *core.Self) error {
			for _, ch := range channels {
				ep, err := self.Channel(ch)
				if err != nil {
					return err
				}
				eps = append(eps, ep)
			}
			return nil
		},
		Body: func(self *core.Self) {
			tr := self.Tracer()
			sc := self.TraceScope()
			for _, ep := range eps {
				n, _ := self.RecvBatch(ep, recvBufs, recvLens)
				for i := 0; i < n; i++ {
					msg, err := ParseMsg(recvBufs[i][:recvLens[i]])
					if err != nil {
						continue
					}
					switch msg.Type {
					case MsgData:
						// The terminal hop of a traced request: the span's
						// duration is the socket write syscall itself.
						start := tr.Begin(sc)
						_ = table.Write(msg.Sock, msg.Data) // peer EOF surfaces via READER
						tr.End(self.WorkerID(), sc, trace.KindNetWrite, msg.Sock, start)
					case MsgClose:
						_ = table.Close(msg.Sock)
					}
				}
			}
		},
	}
}

// CloserSpec builds the CLOSER eactor: it closes sockets on MsgClose.
func (s *System) CloserSpec(name string, worker int, channels ...string) core.Spec {
	table := s.table
	var eps []*core.Endpoint
	recvBuf := make([]byte, core.DefaultNodePayload)
	return core.Spec{
		Name:   name,
		Worker: worker,
		Init: func(self *core.Self) error {
			for _, ch := range channels {
				ep, err := self.Channel(ch)
				if err != nil {
					return err
				}
				eps = append(eps, ep)
			}
			return nil
		},
		Body: func(self *core.Self) {
			for _, ep := range eps {
				n, ok, err := ep.Recv(recvBuf)
				if err != nil || !ok {
					continue
				}
				msg, err := ParseMsg(recvBuf[:n])
				if err != nil || msg.Type != MsgClose {
					continue
				}
				_ = table.Close(msg.Sock)
				self.Progress()
			}
		},
	}
}
