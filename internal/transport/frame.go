// Package transport is the framed, multiplexed session layer under the
// KV and XMPP wire protocols (ROADMAP item 3). One TCP connection
// carries many concurrent in-flight requests: every frame starts with a
// fixed 16-byte header tagging it with an opaque — a client-chosen
// correlation value — so responses may return out of order and the
// sender keeps a full pipeline in flight instead of stalling a
// connection slot per request. Flow control is a receiver buffer-size
// advertisement: the accepting side announces, in its handshake, how
// many request bytes the session may keep outstanding, and the sender
// throttles itself against that window (transport.Window), so a slow
// receiver bounds the sender's memory instead of wedging or dropping.
//
// The layer deliberately splits into small state machines rather than
// one connection object: Scanner reassembles frames from arbitrary
// stream chunking, Window does sender-side byte accounting, Replay is
// the receiver's opaque dedup + response cache that upgrades the
// at-least-once resend discipline to exactly-once *effect*, Session is
// the goroutine-driven client engine, and Serve a minimal goroutine
// server. The EActors KV service reuses the codec, Window and Replay
// inside its actor bodies (no goroutines, frames encoded straight into
// send-stage slots riding the batched WRITER path); Session/Serve back
// the standalone clients, the benchmark's transport probe and the tests.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderSize is the fixed frame header length:
//
//	[0]     mtype
//	[1]     flags (protocol version in HELLO/HELLO-ACK)
//	[2:4]   reserved, must be zero
//	[4:8]   opaque  (LE) — request correlation tag, feature bits in HELLO
//	[8:12]  length  (LE) — payload bytes following the header
//	[12:16] credit  (LE) — receiver window advertisement / bytes returned
//
// HELLO frames carry no payload and keep opaque below 256 by design: a
// legacy KV server parsing one sees a complete 9-byte request with an
// unknown opcode (every mtype sits in 0xE1..0xE6, far from the legacy
// 1..3 range) and drops the connection immediately, so a new client
// fails fast with ErrLegacyPeer instead of hanging on a half-read frame.
const HeaderSize = 16

// MaxPayload bounds a single frame's payload. The decoder rejects
// larger length fields outright, so a hostile header cannot make a
// receiver buffer gigabytes waiting for a frame that never completes.
const MaxPayload = 1 << 20

// Version1 is the only protocol version; it rides the flags byte of
// HELLO and HELLO-ACK.
const Version1 = 1

// DefaultWindow is the receive-buffer advertisement used when an
// accepting side does not configure one: 256 KiB of outstanding request
// bytes, comfortably 64+ typical KV requests deep.
const DefaultWindow = 256 << 10

// DefaultReplayWindow is the per-session response-cache depth servers
// keep for resend dedup; it must exceed the deepest client pipeline
// (the Session default Depth is half of this).
const DefaultReplayWindow = 128

// Type discriminates frames. All values sit in a high band disjoint
// from the legacy KV opcodes (1..3) and from printable XML ('<' = 0x3C),
// so ParseFrame rejects a peer speaking either on its first byte.
type Type uint8

// Frame types.
const (
	// THello opens a session: flags = version, opaque = feature bits
	// (kept < 256), credit = the client's receive window. No payload.
	THello Type = 0xE1 + iota
	// THelloAck accepts: flags = version, opaque = granted features,
	// credit = the server's receive window the client must respect.
	THelloAck
	// TRequest carries one application request; opaque tags it.
	TRequest
	// TResponse answers the request with the same opaque; credit
	// returns the request frame's bytes to the sender's window.
	TResponse
	// TCredit is a standalone window grant (reserved for streaming
	// receivers; v1 returns credit only on responses).
	TCredit
	// TGoAway announces an orderly close or a protocol violation.
	TGoAway

	typeEnd
)

// Valid reports whether t is a known frame type.
func (t Type) Valid() bool { return t >= THello && t < typeEnd }

// String names the type.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case THelloAck:
		return "hello-ack"
	case TRequest:
		return "request"
	case TResponse:
		return "response"
	case TCredit:
		return "credit"
	case TGoAway:
		return "goaway"
	default:
		return fmt.Sprintf("type(0x%02x)", uint8(t))
	}
}

// Feature bits negotiated in HELLO/HELLO-ACK opaque fields. They must
// stay below 256 to preserve the legacy-server fast-reject property
// documented on HeaderSize.
const (
	// FeatureKV is the pipelined key-value request protocol.
	FeatureKV uint32 = 1 << 0

	// maxHelloFeatures caps the feature word a HELLO may carry.
	maxHelloFeatures = 1 << 8
)

// Frame is one decoded frame. Payload aliases the decode buffer.
type Frame struct {
	Type    Type
	Flags   uint8
	Opaque  uint32
	Credit  uint32
	Payload []byte
}

// ErrShortFrame reports a truncated encoding: not an error on a stream,
// just "feed more bytes".
var ErrShortFrame = errors.New("transport: short frame")

// ErrBadFrame reports a framing violation — unknown type, non-zero
// reserved bytes, oversized length. The stream is unrecoverable and the
// connection should be dropped.
var ErrBadFrame = errors.New("transport: bad frame")

// Hello builds a client HELLO. Features must fit the reserved low byte
// band (see HeaderSize); window is the client's receive advertisement.
func Hello(features, window uint32) (Frame, error) {
	if features >= maxHelloFeatures {
		return Frame{}, fmt.Errorf("transport: hello features %#x exceed the one-byte legacy-reject band", features)
	}
	return Frame{Type: THello, Flags: Version1, Opaque: features, Credit: window}, nil
}

// HelloAck builds the server's acceptance: granted features and the
// receive window the client must respect.
func HelloAck(features, window uint32) Frame {
	return Frame{Type: THelloAck, Flags: Version1, Opaque: features, Credit: window}
}

// AppendFrame encodes f at the end of buf — zero-alloc when buf has
// capacity, so actors encode straight into reusable send-stage slots.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if err := checkFrame(f.Type, len(f.Payload)); err != nil {
		return nil, err
	}
	return append(appendHeader(buf, f, len(f.Payload)), f.Payload...), nil
}

// checkFrame rejects what no peer may be sent: an unknown type or a
// payload of n bytes over MaxPayload.
func checkFrame(t Type, n int) error {
	if !t.Valid() {
		return fmt.Errorf("%w: unknown type %#x", ErrBadFrame, uint8(t))
	}
	if n > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, n, MaxPayload)
	}
	return nil
}

// appendHeader encodes f's header, announcing n payload bytes, at the
// end of buf. f.Payload is ignored.
func appendHeader(buf []byte, f Frame, n int) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = byte(f.Type)
	hdr[1] = f.Flags
	binary.LittleEndian.PutUint32(hdr[4:], f.Opaque)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:], f.Credit)
	return append(buf, hdr[:]...)
}

// ParseFrame decodes one frame from b. Payload aliases b. It returns
// ErrShortFrame when b holds only a prefix (recoverable: feed more) and
// ErrBadFrame on a framing violation (unrecoverable: drop the stream).
// The returned length is the number of bytes consumed.
func ParseFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, ErrShortFrame
	}
	// Fail fast on the type byte: a stream that opens with a non-frame
	// byte is misframed now, not after 15 more bytes trickle in.
	t := Type(b[0])
	if !t.Valid() {
		return Frame{}, 0, fmt.Errorf("%w: unknown type %#x", ErrBadFrame, b[0])
	}
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrShortFrame
	}
	if b[2] != 0 || b[3] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: non-zero reserved bytes", ErrBadFrame)
	}
	length := binary.LittleEndian.Uint32(b[8:])
	if length > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, length, MaxPayload)
	}
	total := HeaderSize + int(length)
	if len(b) < total {
		return Frame{}, 0, ErrShortFrame
	}
	return Frame{
		Type:    t,
		Flags:   b[1],
		Opaque:  binary.LittleEndian.Uint32(b[4:]),
		Credit:  binary.LittleEndian.Uint32(b[12:]),
		Payload: b[HeaderSize:total],
	}, total, nil
}

// Scanner reassembles frames from a TCP byte stream: chunks arrive
// split and coalesced arbitrarily, so the receiver buffers partial
// frames and yields only complete ones. The backing array is kept
// across frames (a read offset marks what Next consumed, and Feed
// compacts), so a steady stream is reassembled without allocating.
type Scanner struct {
	buf []byte
	off int // start of the bytes Next has not consumed
}

// scannerLimit bounds buffered partial-frame bytes; a peer streaming a
// header that never completes is cut off rather than ballooning memory.
const scannerLimit = MaxPayload + HeaderSize

// maxReuse is the largest buffer this package keeps for reuse — a
// drained Scanner's backing array, a recycled Call's frame. A rare big
// burst then costs an allocation instead of pinning its memory.
const maxReuse = 64 << 10

// Feed appends stream bytes to the scanner, first moving any partial
// frame to the front of the buffer.
func (s *Scanner) Feed(b []byte) {
	if s.off > 0 {
		n := copy(s.buf, s.buf[s.off:])
		s.buf, s.off = s.buf[:n], 0
	}
	s.buf = append(s.buf, b...)
}

// Next returns the next complete frame plus its raw encoded bytes (for
// routers that forward frames without rebuilding them). ok is false
// when only a partial frame is buffered. A non-nil error means the
// stream has lost framing and the connection must be dropped. Frame
// payload and raw alias the internal buffer; valid until the next Feed.
func (s *Scanner) Next() (f Frame, raw []byte, ok bool, err error) {
	f, n, err := ParseFrame(s.buf[s.off:])
	if err != nil {
		if errors.Is(err, ErrShortFrame) {
			if s.Buffered() > scannerLimit {
				return Frame{}, nil, false, fmt.Errorf("%w: %d buffered bytes without a complete frame", ErrBadFrame, s.Buffered())
			}
			return Frame{}, nil, false, nil
		}
		return Frame{}, nil, false, err
	}
	raw = s.buf[s.off : s.off+n]
	s.off += n
	if s.off == len(s.buf) {
		s.buf, s.off = s.buf[:0], 0
		if cap(s.buf) > maxReuse {
			s.buf = nil // let a large burst free its backing array
		}
	}
	return f, raw, true, nil
}

// Buffered returns the number of unconsumed bytes.
func (s *Scanner) Buffered() int { return len(s.buf) - s.off }
