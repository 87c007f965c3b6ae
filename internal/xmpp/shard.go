package xmpp

import (
	"bytes"
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/trace"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// deliverFlushBatch is the outbound batch the stage sends mid-round: a
// large group fan-out goes out in doorbell-coalesced batches instead of
// accumulating the whole room in the stage.
const deliverFlushBatch = 64

// maxBatch bounds the messages one shard or room-shard invocation
// drains.
const maxBatch = 32

// shardState is one XMPP eactor's private state.
type shardState struct {
	pcl    map[uint32]*session // the paper's private client list
	dirBuf []byte              // opens sealed directory entries (Directory.Sock)
	// stage batches outbound frames: one SendBatch — one pool trip, one
	// mbox CAS, one WRITER doorbell — per flush instead of per stanza.
	stage core.SendStage
	// readStage carries watches to the shard's READER and closeStage
	// closes to the CLOSER: a lost one leaves a session deaf or leaks a
	// socket, so what a full channel refuses stays staged.
	readStage, closeStage core.SendStage
	// readBufs/hoBufs are the batch receive sets for the read and
	// handoff channels.
	readBufs, hoBufs [][]byte
	readLens, hoLens []int
	// ciphers caches the service-level body ciphers per user key —
	// "an eactor can store its encryption key in its private state"
	// (Section 4.1); rebuilding AES-GCM state per fan-out would dominate
	// the group-chat path.
	ciphers map[string]*ecrypto.Cipher
	// roomFwd holds the forward endpoints towards dedicated room shards.
	roomFwd []*core.Endpoint
}

// bodyCipher returns the cached server-side cipher for a user key.
func (st *shardState) bodyCipher(keyHex string) (*ecrypto.Cipher, error) {
	if c, ok := st.ciphers[keyHex]; ok {
		return c, nil
	}
	c, err := cipherFromHex(keyHex)
	if err != nil {
		return nil, err
	}
	st.ciphers[keyHex] = c
	return c, nil
}

// shardSpec builds XMPP eactor i: it owns the connections handed off by
// the CONNECTOR, parses their stanzas, routes one-to-one chat messages
// via the shared Online list and fans groupchat messages out with
// per-member re-encryption (Section 5.1.2).
func (srv *Server) shardSpec(opts Options, i, worker int, enclave string) core.Spec {
	st := &shardState{
		pcl:     make(map[uint32]*session),
		ciphers: make(map[string]*ecrypto.Cipher),
	}
	st.readBufs, st.readLens = core.BatchBufs(maxBatch, 4096)
	st.hoBufs, st.hoLens = core.BatchBufs(8, 4096)
	var handoff, read, write, closeCh *core.Endpoint
	roomFwd := make([]*core.Endpoint, len(opts.DedicatedRooms))
	return core.Spec{
		Name:    shardName(i),
		Enclave: enclave,
		Worker:  worker,
		State:   st,
		Init: func(self *core.Self) error {
			handoff = self.MustChannel(fmt.Sprintf("handoff-%d", i))
			read = self.MustChannel(fmt.Sprintf("read-%d", i))
			write = self.MustChannel(fmt.Sprintf("write-%d", i))
			closeCh = self.MustChannel(fmt.Sprintf("close-%d", i))
			for j := range opts.DedicatedRooms {
				ep, err := self.Channel(roomFwdChannel(i, j))
				if err != nil {
					return err
				}
				roomFwd[j] = ep
			}
			st.roomFwd = roomFwd
			return nil
		},
		Body: func(self *core.Self) {
			// Take over newly authenticated connections.
			n, _ := self.RecvBatch(handoff, st.hoBufs, st.hoLens)
			for i := 0; i < n; i++ {
				srv.shardHandoff(self, st, write, closeCh, st.hoBufs[i][:st.hoLens[i]])
			}

			// Inbound traffic, one batched drain bounded by maxBatch and
			// the worker's drain budget.
			n, _ = self.RecvBatch(read, st.readBufs, st.readLens)
			for i := 0; i < n; i++ {
				srv.shardRead(self, st, st.readBufs[i][:st.readLens[i]], write, closeCh)
			}

			// One doorbell for everything this round produced.
			if srv.flushWrites(st, write) > 0 {
				self.Progress()
			}
			self.Flush(&st.readStage, read)
			self.Flush(&st.closeStage, closeCh)
		},
	}
}

// shardHandoff installs a session arriving from the CONNECTOR, feeds it
// the bytes that follow and drains whatever complete stanzas they hold
// (every Feed is followed by a drain, so no session keeps a buffered
// stanza waiting for its next read), and watches its socket once the
// CONNECTOR's READER has let go of it.
func (srv *Server) shardHandoff(self *core.Self, st *shardState, write, closeCh *core.Endpoint, payload []byte) {
	if len(payload) == 0 {
		return
	}
	self.Progress()
	if payload[0] == handoffSession {
		if entry, err := decodeHandoff(payload); err == nil {
			st.pcl[entry.Sock] = &session{sock: entry.Sock, user: entry.User, keyHex: entry.Key, authed: true, sawHdr: true}
		}
		return
	}
	kind, sock, data, err := decodeSockMsg(payload)
	if err != nil {
		return
	}
	sess, ok := st.pcl[sock]
	if !ok {
		return
	}
	switch kind {
	case handoffBytes:
		sess.scanner.Feed(data)
		srv.shardDrainSession(self, st, sess, write, closeCh)
	case handoffWatch:
		(netactors.Msg{Type: netactors.MsgWatch, Sock: sock}).StageOn(&st.readStage)
	case handoffClosed:
		srv.shardDisconnect(st, closeCh, sock, false)
	}
}

// shardRead handles one message from the shard's READER: bytes for a
// session, or the news that its socket closed.
func (srv *Server) shardRead(self *core.Self, st *shardState, raw []byte, write, closeCh *core.Endpoint) {
	msg, err := netactors.ParseMsg(raw)
	if err != nil {
		return
	}
	switch msg.Type {
	case netactors.MsgClosed:
		srv.shardDisconnect(st, closeCh, msg.Sock, false)
	case netactors.MsgData:
		if sess, ok := st.pcl[msg.Sock]; ok {
			sess.scanner.Feed(msg.Data)
			srv.shardDrainSession(self, st, sess, write, closeCh)
		}
	}
}

// shardDrainSession processes every complete stanza a session has
// buffered.
func (srv *Server) shardDrainSession(self *core.Self, st *shardState, sess *session, write, closeCh *core.Endpoint) {
	tr := self.Tracer()
	sc := self.TraceScope()
	for {
		el, ok, err := sess.scanner.Next()
		if err != nil {
			srv.shardDisconnect(st, closeCh, sess.sock, true)
			return
		}
		if !ok {
			return
		}
		self.Progress()
		var routeStart time.Time
		if srv.routeNs != nil {
			routeStart = time.Now()
		}
		spanStart := tr.Begin(sc)
		switch {
		case el.Kind == stanza.KindStreamEnd:
			srv.shardDisconnect(st, closeCh, sess.sock, true)
			return
		case el.Kind != stanza.KindStanza:
			continue
		case el.Name == "message" && el.AttrIs("type", "groupchat"):
			srv.routeGroup(st, sess, &el, write)
		case el.Name == "message":
			srv.routeOneToOne(st, sess, &el, write)
		case el.Name == "presence":
			srv.handlePresence(sess, &el)
		case el.Name == "iq":
			srv.handleIQ(st, sess, &el, write)
		}
		srv.routeNs.ObserveSince(routeStart)
		// The routing decision plus delivery staging, attributed to the
		// inbound socket that produced the stanza.
		tr.End(self.WorkerID(), sc, trace.KindRoute, sess.sock, spanStart)
	}
}

// routeOneToOne delivers a chat message to its recipient's socket. The
// body is opaque to the service (end-to-end encryption is between the
// clients); the stanza is forwarded as received, with the sender
// identity pinned to the authenticated user.
func (srv *Server) routeOneToOne(st *shardState, sess *session, el *stanza.Stanza, write *core.Endpoint) {
	to := el.AttrBytes("to")
	if bytes.IndexByte(to, '&') >= 0 {
		to = []byte(stanza.Unescape(string(to)))
	}
	sock, ok := srv.online.Sock(to, &st.dirBuf)
	if !ok {
		return // recipient offline: drop (no offline storage in the subset)
	}
	frame := el.Raw
	if !el.AttrIs("from", sess.user) {
		// Re-stamp the sender: clients cannot spoof each other.
		frame = []byte(stanza.Message(sess.user, el.Attr("to"), el.Body()))
	}
	srv.deliver(st, write, sock, frame)
	srv.routed.Add(1)
}

// routeGroup decrypts the sender's sealed body and re-encrypts it for
// every room member with that member's service key.
func (srv *Server) routeGroup(st *shardState, sess *session, el *stanza.Stanza, write *core.Endpoint) {
	room := el.Attr("to")
	// Dedicated rooms never decrypt here: the stanza is forwarded to the
	// room's own enclave, which holds the only plaintext copy.
	if j, ok := srv.roomIndex[room]; ok && j < len(st.roomFwd) && st.roomFwd[j] != nil {
		fwd := encodeRoomForward(roomForward{
			sender: sess.user, keyHex: sess.keyHex,
			room: room, sealedHex: el.Body(),
		})
		// Data-plane send: a full room channel sheds the message (clients
		// retry at the application layer) rather than blocking the shard.
		_ = st.roomFwd[j].Send(fwd) //sendcheck:ok
		return
	}
	members := srv.rooms.Members(room)
	if len(members) == 0 {
		return
	}
	// The sender seals with its client cipher; the service opens with a
	// server-side cipher over the same key.
	openCipher, err := st.bodyCipher(sess.keyHex)
	if err != nil {
		return
	}
	body, err := OpenBodyWith(openCipher, el.Body())
	if err != nil {
		return // not sealed with the sender's key: reject silently
	}
	for _, member := range members {
		if member == sess.user {
			continue
		}
		entry, ok := srv.online.Get(member)
		if !ok {
			continue
		}
		memberCipher, err := st.bodyCipher(entry.Key)
		if err != nil {
			continue
		}
		sealed := SealBodyWith(memberCipher, body)
		frame := stanza.GroupMessage(sess.user, room, sealed)
		srv.deliver(st, write, entry.Sock, []byte(frame))
		srv.fanout.Add(1)
	}
}

// handleIQ answers info/query stanzas: XEP-0199 pings get a result, and
// a presence query ("who") returns whether a user is online — the
// match-making primitive the Signal/SGX discussion of Section 2.1
// motivates (contact discovery without revealing the roster to the
// host).
func (srv *Server) handleIQ(st *shardState, sess *session, el *stanza.Stanza, write *core.Endpoint) {
	if !el.AttrIs("type", "get") {
		return
	}
	id := el.Attr("id")
	switch {
	case containsTag(el.Raw, "ping"):
		reply := fmt.Sprintf(`<iq type="result" id=%q to=%q from=%q/>`,
			stanza.Escape(id), stanza.Escape(sess.user), ServiceName)
		srv.deliver(st, write, sess.sock, []byte(reply))
	case containsTag(el.Raw, "who"):
		target := stanza.ChildText(el.Raw, "who")
		status := "offline"
		if _, ok := srv.online.Get(target); ok {
			status = "online"
		}
		reply := fmt.Sprintf(`<iq type="result" id=%q to=%q from=%q><who>%s</who><status>%s</status></iq>`,
			stanza.Escape(id), stanza.Escape(sess.user), ServiceName,
			stanza.Escape(target), status)
		srv.deliver(st, write, sess.sock, []byte(reply))
	}
}

// containsTag reports whether raw contains an opening <tag>, <tag/> or
// <tag ...>.
func containsTag(raw []byte, tag string) bool {
	for i := 0; i+len(tag)+1 < len(raw); i++ {
		if raw[i] == '<' && string(raw[i+1:i+1+len(tag)]) == tag {
			next := raw[i+1+len(tag)]
			if next == '>' || next == '/' || next == ' ' {
				return true
			}
		}
	}
	return false
}

// handlePresence processes room joins/leaves: presence to "room/nick"
// joins, type="unavailable" leaves.
func (srv *Server) handlePresence(sess *session, el *stanza.Stanza) {
	to := el.Attr("to")
	if to == "" {
		return
	}
	room := to
	for i := 0; i < len(to); i++ {
		if to[i] == '/' {
			room = to[:i]
			break
		}
	}
	if el.Attr("type") == "unavailable" {
		srv.rooms.Leave(room, sess.user)
	} else {
		srv.rooms.Join(room, sess.user)
	}
}

// deliver frames bytes for a socket and stages the frame on the
// outbound batch; the round's flush (or a mid-round one when a big
// fan-out fills a batch) pushes everything with one SendBatch.
func (srv *Server) deliver(st *shardState, write *core.Endpoint, sock uint32, data []byte) {
	if (netactors.Msg{Type: netactors.MsgData, Sock: sock, Data: data}).StageOn(&st.stage) &&
		st.stage.Len()%deliverFlushBatch == 0 {
		srv.flushWrites(st, write)
	}
}

// flushWrites sends the staged frames as one batch and returns how many
// went. What a full WRITER channel refuses stays staged and goes first
// next flush, so per-socket FIFO order survives backpressure.
func (srv *Server) flushWrites(st *shardState, write *core.Endpoint) int {
	n, _ := st.stage.Flush(write)
	return n
}

// shardDisconnect tears a session down, optionally closing the socket.
func (srv *Server) shardDisconnect(st *shardState, closeCh *core.Endpoint, sock uint32, closeSock bool) {
	sess, ok := st.pcl[sock]
	if !ok {
		return
	}
	delete(st.pcl, sock)
	srv.online.Remove(sess.user)
	srv.rooms.LeaveAll(sess.user)
	if closeSock {
		(netactors.Msg{Type: netactors.MsgClose, Sock: sock}).StageOn(&st.closeStage)
		_, _ = st.closeStage.Flush(closeCh)
	}
}
