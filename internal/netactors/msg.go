// Package netactors provides the EActors networking system eactors
// (Section 4.2 of the paper): OPENER, ACCEPTER, READER, WRITER and
// CLOSER. Enclaves cannot perform system calls, so these eactors always
// run untrusted and bridge sockets to enclaved application eactors over
// ordinary channels.
//
// Substitution note: the paper's READER issues non-blocking recv system
// calls directly. Go's runtime netpoller is the idiomatic equivalent of
// non-blocking I/O — a blocking conn.Read parks a goroutine on epoll
// rather than a thread — so each watched socket is backed by a small pump
// goroutine feeding a bounded queue that the READER eactor drains
// non-blockingly. The pump also queues the socket on its READER's ready
// queue, so the READER drains only sockets that have bytes, never its
// whole watch set. At the actor layer the semantics (polling, batching,
// per-socket mboxes) match the paper.
package netactors

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/eactors/eactors-go/internal/core"
)

// MsgType discriminates messages exchanged with the system eactors.
type MsgType uint8

// Message types of the networking protocol.
const (
	// MsgListen asks the OPENER to create a server socket; Data is the
	// listen address.
	MsgListen MsgType = iota + 1
	// MsgDial asks the OPENER to create a client socket; Data is the
	// remote address.
	MsgDial
	// MsgOpenOK returns the socket identifier for a successful
	// listen/dial.
	MsgOpenOK
	// MsgOpenErr reports a failed listen/dial; Data is the error text.
	MsgOpenErr
	// MsgWatch registers a socket with an ACCEPTER (listener) or READER
	// (connection).
	MsgWatch
	// MsgAccepted announces a newly accepted connection socket.
	MsgAccepted
	// MsgData carries payload bytes to (WRITER) or from (READER) a
	// socket.
	MsgData
	// MsgClosed announces that a watched socket hit EOF or an error.
	MsgClosed
	// MsgClose asks the CLOSER to close a socket.
	MsgClose
	// MsgUnwatch removes a READER watch so another READER can take the
	// socket over (connection handoff between eactors).
	MsgUnwatch
)

const msgHeader = 1 + 4 + 2 // type + sock + length

// Msg is one message of the networking protocol.
type Msg struct {
	Type MsgType
	Sock uint32
	Data []byte
}

// ErrShortMsg reports a truncated encoding.
var ErrShortMsg = errors.New("netactors: short message")

// MaxData returns the largest Data payload fitting a node of the given
// capacity.
func MaxData(nodeCapacity int) int { return nodeCapacity - msgHeader }

// AppendTo encodes m at the end of buf.
func (m Msg) AppendTo(buf []byte) ([]byte, error) {
	if len(m.Data) > 0xFFFF {
		return nil, fmt.Errorf("netactors: data %d exceeds 64 KiB frame limit", len(m.Data))
	}
	var hdr [msgHeader]byte
	hdr[0] = byte(m.Type)
	binary.LittleEndian.PutUint32(hdr[1:], m.Sock)
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(m.Data)))
	buf = append(buf, hdr[:]...)
	return append(buf, m.Data...), nil
}

// StageOn encodes m into the next slot of stage and stages it, reporting
// whether the stage took it (false for Data past the frame limit or a
// full stage).
func (m Msg) StageOn(stage *core.SendStage) bool {
	buf, err := m.AppendTo(stage.Slot())
	return err == nil && stage.Push(buf)
}

// ParseMsg decodes one message. The returned Data aliases b.
func ParseMsg(b []byte) (Msg, error) {
	if len(b) < msgHeader {
		return Msg{}, ErrShortMsg
	}
	n := int(binary.LittleEndian.Uint16(b[5:]))
	if len(b) < msgHeader+n {
		return Msg{}, ErrShortMsg
	}
	return Msg{
		Type: MsgType(b[0]),
		Sock: binary.LittleEndian.Uint32(b[1:]),
		Data: b[msgHeader : msgHeader+n],
	}, nil
}
