package xmpp

import (
	"fmt"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// connectorState is the CONNECTOR eactor's private state.
type connectorState struct {
	sessions map[uint32]*session
	// handedOff remembers which shard now owns a socket, so bytes that
	// raced the reader handover can be forwarded.
	handedOff map[uint32]int
	recvBuf   []byte
	// The CONNECTOR's outboxes: readStage carries watches and unwatches
	// to its READER, writeStage handshake frames and teardown closes to
	// the WRITER, handoff[i] sessions and stray bytes to shard i. A lost
	// control frame would wedge a session, so whatever a full channel
	// refuses stays staged, in order, for the next round.
	readStage, writeStage core.SendStage
	handoff               []core.SendStage
}

// connectorSpec builds the CONNECTOR eactor (Figure 7): it opens the
// server socket, accepts clients, runs the stream/auth handshake, then
// publishes the connection in the Online list and hands it off to the
// responsible XMPP shard.
func (srv *Server) connectorSpec(opts Options, worker int, enclave string, shards int, addrCh chan<- string) core.Spec {
	st := &connectorState{
		sessions:  make(map[uint32]*session),
		handedOff: make(map[uint32]int),
		recvBuf:   make([]byte, 4096),
		handoff:   make([]core.SendStage, shards),
	}
	lis := netactors.NewListener(opts.ListenAddr)
	var (
		open, accept, read, write *core.Endpoint
		handoff                   []*core.Endpoint
	)
	return core.Spec{
		Name:    "connector",
		Enclave: enclave,
		Worker:  worker,
		State:   st,
		Init: func(self *core.Self) error {
			open = self.MustChannel("open")
			accept = self.MustChannel("c-accept")
			read = self.MustChannel("c-read")
			write = self.MustChannel("c-write")
			handoff = make([]*core.Endpoint, shards)
			for i := 0; i < shards; i++ {
				handoff[i] = self.MustChannel(fmt.Sprintf("handoff-%d", i))
			}
			return nil
		},
		Body: func(self *core.Self) {
			if lis.Up(self, open, accept, addrCh) {
				srv.connectorServe(self, st, accept, read, write, handoff, shards)
			}
		},
	}
}

// connectorServe is one serve-phase invocation: accept new sockets,
// drive handshakes, hand authenticated sessions to their shards.
func (srv *Server) connectorServe(self *core.Self, st *connectorState,
	accept, read, write *core.Endpoint, handoff []*core.Endpoint, shards int) {

	// New connections.
	for {
		n, ok, err := accept.Recv(st.recvBuf)
		if err != nil || !ok {
			break
		}
		msg, err := netactors.ParseMsg(st.recvBuf[:n])
		if err != nil || msg.Type != netactors.MsgAccepted {
			continue
		}
		st.sessions[msg.Sock] = &session{sock: msg.Sock}
		(netactors.Msg{Type: netactors.MsgWatch, Sock: msg.Sock}).StageOn(&st.readStage)
		self.Progress()
	}

	// Handshake traffic.
	for i := 0; i < 64; i++ {
		n, ok, err := read.Recv(st.recvBuf)
		if err != nil || !ok {
			break
		}
		msg, err := netactors.ParseMsg(st.recvBuf[:n])
		if err != nil {
			continue
		}
		self.Progress()
		switch msg.Type {
		case netactors.MsgClosed:
			delete(st.sessions, msg.Sock)
			delete(st.handedOff, msg.Sock)
		case netactors.MsgData:
			if shard, ok := st.handedOff[msg.Sock]; ok {
				// Raced the reader handover: forward to the new owner,
				// behind the handoff in the same stage.
				hs := &st.handoff[shard]
				hs.Push(append(hs.Slot(), encodeStray(msg.Sock, msg.Data)...))
				continue
			}
			sess, ok := st.sessions[msg.Sock]
			if !ok {
				continue
			}
			sess.scanner.Feed(msg.Data)
			srv.connectorHandshake(self, st, sess, shards)
		}
	}
	self.Flush(&st.readStage, read)
	self.Flush(&st.writeStage, write)
	if st.writeStage.Len() > 0 {
		return // handoffs wait: a shard must not answer before AuthSuccess
	}
	for i := range st.handoff {
		self.Flush(&st.handoff[i], handoff[i])
	}
}

// connectorHandshake advances one session's handshake as far as its
// buffered bytes allow.
func (srv *Server) connectorHandshake(self *core.Self, st *connectorState, sess *session, shards int) {
	send := func(data string) {
		(netactors.Msg{Type: netactors.MsgData, Sock: sess.sock, Data: []byte(data)}).StageOn(&st.writeStage)
	}
	fail := func() {
		srv.authFail.Add(1)
		send(stanza.AuthFailure)
		// The close travels on the WRITER's channel behind the failure
		// frame, so the peer sees the rejection before the reset.
		(netactors.Msg{Type: netactors.MsgClose, Sock: sess.sock}).StageOn(&st.writeStage)
		delete(st.sessions, sess.sock)
	}

	for {
		el, ok, err := sess.scanner.Next()
		if err != nil {
			fail()
			return
		}
		if !ok {
			return
		}
		switch {
		case el.Kind == stanza.KindStreamStart:
			if sess.sawHdr {
				fail()
				return
			}
			sess.sawHdr = true
			send(stanza.StreamHeader(ServiceName, el.Attr("from")))
		case el.Kind == stanza.KindStanza && el.Name == "auth":
			user := el.Attr("user")
			key := el.Attr("key")
			if !sess.sawHdr || user == "" {
				fail()
				return
			}
			sess.user = user
			sess.keyHex = key
			sess.authed = true
			srv.online.Add(OnlineEntry{User: user, Sock: sess.sock, Key: key})
			srv.conns.Add(1)
			send(stanza.AuthSuccess)

			// Hand the connection to its shard: release our READER and
			// transfer any bytes the scanner still buffers.
			shard := shardOf(user, shards)
			(netactors.Msg{Type: netactors.MsgUnwatch, Sock: sess.sock}).StageOn(&st.readStage)
			hs := &st.handoff[shard]
			hs.Push(append(hs.Slot(), encodeHandoff(OnlineEntry{User: user, Sock: sess.sock, Key: key}, sess.scanner.Remainder())...))
			delete(st.sessions, sess.sock)
			st.handedOff[sess.sock] = shard
			self.Progress()
			return
		default:
			// Anything else before auth is a protocol violation.
			fail()
			return
		}
	}
}
