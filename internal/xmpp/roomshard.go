package xmpp

import (
	"encoding/binary"
	"fmt"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// This file implements the paper's strongest messaging configuration
// (Sections 2.1 and 5.1): "dedicating each group chat to a separate
// enclave improves security. Here, if a user could trigger an exploit
// in her own enclave, this does not necessarily imply she would right
// away gain access to sensitive information of other users."
//
// Rooms listed in Options.DedicatedRooms get their own XMPP eactor in
// their own enclave. Regular shards forward groupchat stanzas for those
// rooms over (transparently encrypted) channels; all group plaintext —
// decryption with the sender key, re-encryption per member — happens
// only inside the room's enclave.

// roomForward is the message a regular shard sends to a room shard.
type roomForward struct {
	sender    string
	keyHex    string
	room      string
	sealedHex string
}

func encodeRoomForward(f roomForward) []byte {
	buf := make([]byte, 0, 8+len(f.sender)+len(f.keyHex)+len(f.room)+len(f.sealedHex))
	var tmp [2]byte
	put := func(s string) {
		binary.LittleEndian.PutUint16(tmp[:], uint16(len(s)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, s...)
	}
	put(f.sender)
	put(f.keyHex)
	put(f.room)
	put(f.sealedHex)
	return buf
}

func decodeRoomForward(b []byte) (roomForward, error) {
	var f roomForward
	take := func() (string, bool) {
		if len(b) < 2 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(b))
		if len(b) < 2+n {
			return "", false
		}
		s := string(b[2 : 2+n])
		b = b[2+n:]
		return s, true
	}
	var ok bool
	if f.sender, ok = take(); !ok {
		return f, errBadHandoff
	}
	if f.keyHex, ok = take(); !ok {
		return f, errBadHandoff
	}
	if f.room, ok = take(); !ok {
		return f, errBadHandoff
	}
	if f.sealedHex, ok = take(); !ok {
		return f, errBadHandoff
	}
	return f, nil
}

func roomShardName(j int) string   { return fmt.Sprintf("room-shard-%d", j) }
func roomWriterName(j int) string  { return fmt.Sprintf("room-writer-%d", j) }
func roomEnclaveName(j int) string { return fmt.Sprintf("xmpp-room-%d", j) }
func roomFwdChannel(i, j int) string {
	return fmt.Sprintf("roomfwd-%d-%d", i, j)
}

// roomShardSpec builds the dedicated eactor for room j: it drains the
// forward channels from every regular shard and fans messages out with
// per-member re-encryption, entirely within its own enclave.
func (srv *Server) roomShardSpec(opts Options, j, worker int, enclave, room string, shards int) core.Spec {
	ciphers := make(map[string]*ecrypto.Cipher)
	cipherFor := func(keyHex string) (*ecrypto.Cipher, error) {
		if c, ok := ciphers[keyHex]; ok {
			return c, nil
		}
		c, err := cipherFromHex(keyHex)
		if err != nil {
			return nil, err
		}
		ciphers[keyHex] = c
		return c, nil
	}
	var in []*core.Endpoint
	var write *core.Endpoint
	var pending [][]byte
	var stage core.SendStage
	recvBufs, recvLens := core.BatchBufs(maxBatch, 8192)
	return core.Spec{
		Name:    roomShardName(j),
		Enclave: enclave,
		Worker:  worker,
		Init: func(self *core.Self) error {
			for i := 0; i < shards; i++ {
				ep, err := self.Channel(roomFwdChannel(i, j))
				if err != nil {
					return err
				}
				in = append(in, ep)
			}
			var err error
			write, err = self.Channel(fmt.Sprintf("room-write-%d", j))
			return err
		},
		Body: func(self *core.Self) {
			// Retry frames that previously hit a full channel, as one
			// batch in FIFO order.
			if len(pending) > 0 {
				n, _ := write.SendBatch(pending) //sendcheck:ok
				if n > 0 {
					self.Progress()
					pending = pending[n:]
					if len(pending) == 0 {
						pending = nil
					}
				}
			}
			for _, ep := range in {
				n, _ := self.RecvBatch(ep, recvBufs, recvLens)
				for i := 0; i < n; i++ {
					fwd, err := decodeRoomForward(recvBufs[i][:recvLens[i]])
					if err != nil || fwd.room != room {
						continue
					}
					srv.roomFanout(fwd, cipherFor, &stage)
				}
			}
			// One SendBatch — one doorbell to the room's WRITER — for the
			// whole fan-out this round. Stage slots are reused next round,
			// so spilled frames get copies (backpressure path only).
			if stage.Len() > 0 {
				sent := 0
				if len(pending) == 0 {
					sent, _ = write.SendBatch(stage.Frames()) //sendcheck:ok
				}
				if sent > 0 {
					self.Progress()
				}
				for _, f := range stage.Frames()[sent:] {
					if len(pending) >= maxPendingWrites {
						break // slow-receiver protection: drop the rest
					}
					pending = append(pending, append([]byte(nil), f...))
				}
				stage.Reset()
			}
		},
	}
}

// roomFanout decrypts the sender's body and re-encrypts it per member —
// the room enclave is the only place this plaintext ever exists. Frames
// are staged; the caller flushes them as one batch.
func (srv *Server) roomFanout(fwd roomForward, cipherFor func(string) (*ecrypto.Cipher, error), stage *core.SendStage) {
	senderCipher, err := cipherFor(fwd.keyHex)
	if err != nil {
		return
	}
	body, err := OpenBodyWith(senderCipher, fwd.sealedHex)
	if err != nil {
		return
	}
	for _, member := range srv.rooms.Members(fwd.room) {
		if member == fwd.sender {
			continue
		}
		entry, ok := srv.online.Get(member)
		if !ok {
			continue
		}
		memberCipher, err := cipherFor(entry.Key)
		if err != nil {
			continue
		}
		sealed := SealBodyWith(memberCipher, body)
		frame := stanza.GroupMessage(fwd.sender, fwd.room, sealed)
		m, err := (netactors.Msg{Type: netactors.MsgData, Sock: entry.Sock, Data: []byte(frame)}).AppendTo(stage.Slot())
		if err != nil {
			continue
		}
		stage.Push(m)
		srv.fanout.Add(1)
	}
}
