package kv

import (
	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/trace"
	"github.com/eactors/eactors-go/internal/transport"
)

// stageFlushBatch is the outbound batch a stage sends mid-round.
const stageFlushBatch = 64

// maxReplaySessions bounds the per-KVSTORE replay-state table; beyond
// it the oldest session's cache is evicted (its resends then read as
// fresh requests, which at-least-once semantics tolerate). Close
// notifications normally reclaim entries long before this trips.
const maxReplaySessions = 1024

// connState is the FRONTEND's per-socket state: frame reassembly, the
// handshake flag and the opaque replay-window horizon that preserves
// at-least-once semantics under deep pipelining (a resend must still
// land inside the KVSTOREs' dedup caches, so opaques that fall behind
// the horizon are a protocol violation and kill the session).
type connState struct {
	frames     transport.Scanner
	helloSeen  bool
	opaqueSeen bool
	maxOpaque  uint32
}

// frontendState is the FRONTEND eactor's private state. Every line
// out of the FRONTEND has its own stage, which keeps in order what a
// full channel refuses (core.SendStage).
type frontendState struct {
	socks     map[uint32]*connState
	recvBufs  [][]byte
	recvLens  []int
	acceptBuf []byte
	// stages[i] batches the requests routed to KVSTORE shard i, and the
	// close notices that reclaim their replay state behind them.
	stages []core.SendStage
	// fwStage carries session-control frames (HELLO-ACK) over the
	// FRONTEND's direct fwrite line to the WRITER; readStage the watches
	// to the READER; closeStage the closes to the CLOSER.
	fwStage, readStage, closeStage core.SendStage
	frameBuf                       []byte
}

// maxBatch bounds the messages one FRONTEND or KVSTORE invocation
// drains.
const maxBatch = 32

// newFrontendState builds the FRONTEND's private state for a deployment
// of the given shard count.
func newFrontendState(shards int) *frontendState {
	st := &frontendState{
		socks:     make(map[uint32]*connState),
		acceptBuf: make([]byte, 4096),
		stages:    make([]core.SendStage, shards),
	}
	st.recvBufs, st.recvLens = core.BatchBufs(maxBatch, core.DefaultNodePayload)
	return st
}

// frontendSpec builds the FRONTEND eactor: it owns the listener, the
// per-socket frame reassembly, the session handshakes, and the key-affinity
// routing into the KVSTORE shards. It runs untrusted — request
// plaintext crosses it the same way it crossed the kernel's socket
// buffers — and the req channels re-protect everything at the first
// enclave boundary.
func (srv *Server) frontendSpec(opts Options, worker, shards int, addrCh chan<- string) core.Spec {
	maxForward := netactors.MaxData(core.DefaultNodePayload)
	st := newFrontendState(shards)
	lis := netactors.NewListener(opts.ListenAddr)
	var open, accept, read, closeCh, fwrite *core.Endpoint
	reqChans := make([]*core.Endpoint, shards)
	return core.Spec{
		Name:   "frontend",
		Worker: worker,
		State:  st,
		Init: func(self *core.Self) error {
			open = self.MustChannel("open")
			accept = self.MustChannel("accept")
			read = self.MustChannel("read")
			closeCh = self.MustChannel("close")
			fwrite = self.MustChannel("fwrite")
			for i := 0; i < shards; i++ {
				reqChans[i] = self.MustChannel(reqChannel(i))
			}
			return nil
		},
		Body: func(self *core.Self) {
			if lis.Up(self, open, accept, addrCh) {
				srv.frontendServe(self, st, opts, accept, read, closeCh, fwrite, reqChans, shards, maxForward)
			}
		},
	}
}

// frontendServe is one serve-phase invocation.
func (srv *Server) frontendServe(self *core.Self, st *frontendState, opts Options,
	accept, read, closeCh, fwrite *core.Endpoint, reqChans []*core.Endpoint, shards, maxForward int) {

	// New connections: watch their bytes.
	for {
		n, ok, err := accept.Recv(st.acceptBuf)
		if err != nil || !ok {
			break
		}
		msg, err := netactors.ParseMsg(st.acceptBuf[:n])
		if err != nil || msg.Type != netactors.MsgAccepted {
			continue
		}
		st.socks[msg.Sock] = &connState{}
		(netactors.Msg{Type: netactors.MsgWatch, Sock: msg.Sock}).StageOn(&st.readStage)
		self.Progress()
	}

	// Inbound stream chunks, one batched drain.
	n, _ := self.RecvBatch(read, st.recvBufs, st.recvLens)
	for i := 0; i < n; i++ {
		msg, err := netactors.ParseMsg(st.recvBufs[i][:st.recvLens[i]])
		if err != nil {
			continue
		}
		switch msg.Type {
		case netactors.MsgClosed:
			if cs, ok := st.socks[msg.Sock]; ok {
				srv.forgetConn(st, cs, msg.Sock)
			}
		case netactors.MsgData:
			// Every byte goes to the frame scanner; a peer speaking
			// anything else fails its first parse and is dropped.
			if cs, ok := st.socks[msg.Sock]; ok {
				cs.frames.Feed(msg.Data)
				srv.routeFrames(self, st, opts, cs, msg.Sock, closeCh, fwrite, reqChans, shards, maxForward)
			}
		}
	}
	// Every stage flushes once a round; what a full channel refuses goes
	// first next round.
	for i := range st.stages {
		self.Flush(&st.stages[i], reqChans[i])
	}
	self.Flush(&st.fwStage, fwrite)
	self.Flush(&st.readStage, read)
	self.Flush(&st.closeStage, closeCh)
}

// dropConn cuts a peer off: forgets its session and closes the socket.
func (srv *Server) dropConn(st *frontendState, cs *connState, sock uint32) {
	srv.forgetConn(st, cs, sock)
	(netactors.Msg{Type: netactors.MsgClose, Sock: sock}).StageOn(&st.closeStage)
}

// forgetConn drops a socket's state and, if the session ever routed a
// request, stages the close for every KVSTORE so replay caches are
// reclaimed promptly. The close queues behind the session's requests
// in each shard's stage, so it never overtakes one.
func (srv *Server) forgetConn(st *frontendState, cs *connState, sock uint32) {
	delete(st.socks, sock)
	if !cs.opaqueSeen {
		return
	}
	for i := range st.stages {
		(netactors.Msg{Type: netactors.MsgClosed, Sock: sock}).StageOn(&st.stages[i])
	}
}

// routeFrames drains a session's buffered frames: the handshake is
// answered directly over fwrite, requests are validated against the
// session's opaque window and forwarded — still as one raw frame per
// message — to the shard owning the key.
func (srv *Server) routeFrames(self *core.Self, st *frontendState, opts Options, cs *connState,
	sock uint32, closeCh, fwrite *core.Endpoint, reqChans []*core.Endpoint, shards, maxForward int) {

	for {
		f, raw, ok, err := cs.frames.Next()
		if err != nil {
			srv.dropConn(st, cs, sock)
			return
		}
		if !ok {
			return
		}
		self.Progress()
		switch f.Type {
		case transport.THello:
			if cs.helloSeen || f.Flags != transport.Version1 || f.Opaque&transport.FeatureKV == 0 {
				srv.dropConn(st, cs, sock)
				return
			}
			cs.helloSeen = true
			srv.sessions.Add(1)
			ack := transport.HelloAck(transport.FeatureKV, uint32(opts.SessionWindow))
			frame, err := transport.AppendFrame(st.frameBuf[:0], ack)
			if err != nil {
				srv.dropConn(st, cs, sock)
				return
			}
			st.frameBuf = frame
			(netactors.Msg{Type: netactors.MsgData, Sock: sock, Data: frame}).StageOn(&st.fwStage)
			if st.fwStage.Len()%stageFlushBatch == 0 {
				self.Flush(&st.fwStage, fwrite)
			}
		case transport.TRequest:
			if !cs.helloSeen || len(raw) > maxForward {
				srv.dropConn(st, cs, sock)
				return
			}
			// Opaque replay-window horizon: a fresh opaque advances it,
			// a resend inside the window passes through (the KVSTORE's
			// cache dedups it), and anything older broke the window
			// discipline — executing it could double-apply, so the
			// session dies instead.
			if !cs.opaqueSeen {
				cs.opaqueSeen = true
				cs.maxOpaque = f.Opaque
			} else if d := int32(f.Opaque - cs.maxOpaque); d > 0 {
				cs.maxOpaque = f.Opaque
			} else if -d >= int32(opts.ReplayWindow) {
				srv.dropConn(st, cs, sock)
				return
			}
			req, _, err := ParseRequest(f.Payload)
			if err != nil || req.Op < OpGet || req.Op > OpDel {
				srv.dropConn(st, cs, sock)
				return
			}
			srv.stageRequest(st, req.Key, sock, raw, reqChans, shards)
		case transport.TGoAway:
			srv.dropConn(st, cs, sock)
			return
		default:
			// TCredit and friends are harmless in v1; anything the
			// session layer does not know is a violation.
			if !f.Type.Valid() {
				srv.dropConn(st, cs, sock)
				return
			}
		}
	}
}

// stageRequest stages one raw request frame for the shard owning key,
// sending a full batch mid-round.
func (srv *Server) stageRequest(st *frontendState, key []byte, sock uint32, raw []byte,
	reqChans []*core.Endpoint, shards int) {

	shard := pos.ShardOf(key, shards)
	if (netactors.Msg{Type: netactors.MsgData, Sock: sock, Data: raw}).StageOn(&st.stages[shard]) &&
		st.stages[shard].Len()%stageFlushBatch == 0 {
		srv.flushStage(st, shard, reqChans[shard])
	}
}

// flushStage sends shard i's staged requests as one batch; what a full
// channel refuses stays staged.
func (srv *Server) flushStage(st *frontendState, i int, ep *core.Endpoint) {
	_, _ = st.stages[i].Flush(ep)
}

func reqChannel(i int) string   { return "req-" + itoa(i) }
func writeChannel(i int) string { return "write-" + itoa(i) }

// itoa avoids fmt on the hot path helpers (tiny shard counts only).
func itoa(i int) string {
	if i < 10 {
		return string([]byte{'0' + byte(i)})
	}
	return itoa(i/10) + itoa(i%10)
}

// storeState is one KVSTORE eactor's private state. valBuf, respBuf and
// frameBuf are the encode scratch a request passes through — GET value,
// response, TResponse frame — reused from request to request.
type storeState struct {
	recvBufs [][]byte
	recvLens []int
	valBuf   []byte
	respBuf  []byte
	frameBuf []byte
	stage    core.SendStage // responses to the WRITER
	// replays is the per-session dedup state: a resent opaque is
	// answered from its cached response frame, so SET/DEL take effect
	// exactly once under at-least-once resends.
	replays    map[uint32]*transport.Replay
	replayFIFO []uint32
}

// replayFor returns (building on demand) the replay window for a
// session, evicting the oldest session past maxReplaySessions.
func (st *storeState) replayFor(sock uint32, capacity int) *transport.Replay {
	if r, ok := st.replays[sock]; ok {
		return r
	}
	if st.replays == nil {
		st.replays = make(map[uint32]*transport.Replay)
	}
	for len(st.replays) >= maxReplaySessions {
		delete(st.replays, st.replayFIFO[0])
		st.replayFIFO = st.replayFIFO[1:]
	}
	r := transport.NewReplay(capacity)
	st.replays[sock] = r
	st.replayFIFO = append(st.replayFIFO, sock)
	return r
}

// storeSpec builds KVSTORE eactor i: it executes the requests routed to
// it on the shared sharded store (key affinity means it only ever
// touches POS shard i, so the KVSTOREs scale without lock contention)
// and stages the responses back to the WRITER in one batch per round.
// Each TResponse wraps the response encoding, echoes the opaque, returns
// the request's bytes as flow-control credit, and lands in the replay
// cache so a client resend replays instead of re-executing.
func (srv *Server) storeSpec(opts Options, i, worker int, enclave string) core.Spec {
	st := &storeState{}
	st.recvBufs, st.recvLens = core.BatchBufs(maxBatch, core.DefaultNodePayload)
	syncPerBurst := opts.FlushInterval < 0
	var req, write *core.Endpoint
	return core.Spec{
		Name:    storeName(i),
		Enclave: enclave,
		Worker:  worker,
		State:   st,
		Init: func(self *core.Self) error {
			req = self.MustChannel(reqChannel(i))
			write = self.MustChannel(writeChannel(i))
			return nil
		},
		Body: func(self *core.Self) {
			n, _ := self.RecvBatch(req, st.recvBufs, st.recvLens)
			for j := 0; j < n; j++ {
				msg, err := netactors.ParseMsg(st.recvBufs[j][:st.recvLens[j]])
				if err != nil {
					continue
				}
				switch msg.Type {
				case netactors.MsgClosed:
					delete(st.replays, msg.Sock)
					continue
				case netactors.MsgData:
				default:
					continue
				}
				self.Progress()
				out := srv.executeFrame(self, st, opts, uint32(i), msg)
				if out == nil {
					continue
				}
				if (netactors.Msg{Type: netactors.MsgData, Sock: msg.Sock, Data: out}).StageOn(&st.stage) &&
					st.stage.Len()%stageFlushBatch == 0 {
					self.Flush(&st.stage, write)
				}
			}
			if n > 0 && syncPerBurst {
				// Per-burst write-back: one batched Sync amortised over
				// the whole drained burst.
				tr := self.Tracer()
				start := tr.Begin(self.TraceScope())
				_ = srv.store.Flush()
				tr.End(self.WorkerID(), self.TraceScope(), trace.KindPOSSync, uint32(i), start)
			}
			self.Flush(&st.stage, write)
		},
	}
}

// executeFrame runs one request frame with replay dedup and returns the
// encoded TResponse frame (nil to drop). The response credit returns
// the request frame's bytes to the client's window.
func (srv *Server) executeFrame(self *core.Self, st *storeState, opts Options, shard uint32, msg netactors.Msg) []byte {
	f, _, err := transport.ParseFrame(msg.Data)
	if err != nil || f.Type != transport.TRequest {
		return nil
	}
	sess := st.replayFor(msg.Sock, opts.ReplayWindow)
	cached, verdict := sess.Admit(f.Opaque)
	switch verdict {
	case transport.VerdictReplay:
		srv.replayed.Add(1)
		return cached
	case transport.VerdictReject:
		// The FRONTEND polices the opaque horizon; a reject here means
		// its notion and ours diverged (e.g. session eviction). Refuse
		// silently — the client's resend discipline treats it as loss.
		return nil
	}
	request, _, err := ParseRequest(f.Payload)
	if err != nil {
		return nil
	}
	resp := srv.execute(self, st, shard, request)
	inner, err := resp.AppendTo(st.respBuf[:0])
	if err != nil {
		return nil
	}
	st.respBuf = inner
	frame, err := transport.AppendFrame(st.frameBuf[:0], transport.Frame{
		Type:    transport.TResponse,
		Opaque:  f.Opaque,
		Credit:  uint32(len(msg.Data)),
		Payload: inner,
	})
	if err != nil {
		return nil
	}
	st.frameBuf = frame
	sess.Store(f.Opaque, frame)
	return frame
}

// execute runs one request against the sharded store; a GET's value
// lands in st.valBuf. The POS spans it records (ref = the executing
// shard; key affinity makes that the only shard touched) time the store
// operation alone — mutations count as KindPOSSet whether they insert
// or delete.
func (srv *Server) execute(self *core.Self, st *storeState, shard uint32, req Request) Response {
	tr := self.Tracer()
	sc := self.TraceScope()
	switch req.Op {
	case OpGet:
		srv.gets.Add(1)
		start := tr.Begin(sc)
		val, ok, err := srv.store.GetAppend(st.valBuf[:0], req.Key)
		st.valBuf = val
		tr.End(self.WorkerID(), sc, trace.KindPOSGet, shard, start)
		if err != nil {
			srv.errs.Add(1)
			return Response{Status: StatusErr, ID: req.ID, Val: []byte(err.Error())}
		}
		if !ok {
			srv.notFound.Add(1)
			return Response{Status: StatusNotFound, ID: req.ID}
		}
		return Response{Status: StatusValue, ID: req.ID, Val: val}
	case OpSet:
		srv.sets.Add(1)
		start := tr.Begin(sc)
		err := srv.store.Set(req.Key, req.Val)
		tr.End(self.WorkerID(), sc, trace.KindPOSSet, shard, start)
		if err != nil {
			srv.errs.Add(1)
			return Response{Status: StatusErr, ID: req.ID, Val: []byte(err.Error())}
		}
		return Response{Status: StatusOK, ID: req.ID}
	case OpDel:
		srv.dels.Add(1)
		start := tr.Begin(sc)
		found, err := srv.store.Delete(req.Key)
		tr.End(self.WorkerID(), sc, trace.KindPOSSet, shard, start)
		if err != nil {
			srv.errs.Add(1)
			return Response{Status: StatusErr, ID: req.ID, Val: []byte(err.Error())}
		}
		if !found {
			srv.notFound.Add(1)
			return Response{Status: StatusNotFound, ID: req.ID}
		}
		return Response{Status: StatusOK, ID: req.ID}
	default:
		srv.errs.Add(1)
		return Response{Status: StatusErr, ID: req.ID, Val: []byte("kv: unknown op")}
	}
}
