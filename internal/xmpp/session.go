package xmpp

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// ServiceName is the JID domain the service answers for.
const ServiceName = "eactors.chat"

// session is the per-connection state an XMPP or CONNECTOR eactor keeps
// in its private client list (PCL).
type session struct {
	sock    uint32
	user    string
	keyHex  string
	scanner stanza.Scanner
	authed  bool
	sawHdr  bool

	// seal/open are the service-level ciphers for group-chat bodies,
	// created lazily from keyHex.
	seal *ecrypto.Cipher
}

// ServerBodyCipher builds a service-side cipher from a client's hex key;
// the baseline servers share it for their group-chat re-encryption.
func ServerBodyCipher(keyHex string) (*ecrypto.Cipher, error) {
	return cipherFromHex(keyHex)
}

// cipherFromHex builds a service-side cipher from a client's hex key.
func cipherFromHex(keyHex string) (*ecrypto.Cipher, error) {
	raw, err := hex.DecodeString(keyHex)
	if err != nil || len(raw) != ecrypto.KeySize {
		return nil, fmt.Errorf("xmpp: bad session key (%d hex chars)", len(keyHex))
	}
	var key [ecrypto.KeySize]byte
	copy(key[:], raw)
	return ecrypto.NewCipher(key, serverDirTag)
}

// Direction tags for the service-level body crypto: clients and server
// share per-user keys but must not collide on nonces.
const (
	clientDirTag = 4
	serverDirTag = 5
)

// SealBodyWith seals a group-chat body with the given cipher, returning
// hex for XML-safe transport.
func SealBodyWith(c *ecrypto.Cipher, plaintext string) string {
	return hex.EncodeToString(c.Seal(nil, []byte(plaintext), nil))
}

// OpenBodyWith opens a hex-encoded sealed group-chat body.
func OpenBodyWith(c *ecrypto.Cipher, sealedHex string) (string, error) {
	raw, err := hex.DecodeString(sealedHex)
	if err != nil {
		return "", fmt.Errorf("xmpp: body is not hex: %w", err)
	}
	plain, err := c.Open(nil, raw, nil)
	if err != nil {
		return "", err
	}
	return string(plain), nil
}

// NewClientBodyCipher builds the client-side cipher for a session key.
func NewClientBodyCipher(key [ecrypto.KeySize]byte) (*ecrypto.Cipher, error) {
	return ecrypto.NewCipher(key, clientDirTag)
}

// Handoff messages on the CONNECTOR→shard channels. A session arrives
// as handoffSession, then every byte the CONNECTOR still holds or later
// receives for it as handoffBytes, then handoffWatch once the CONNECTOR's
// READER has acknowledged the unwatch (or handoffClosed if the
// connection ended first). The shard's READER watches the socket only
// then, so no byte it reads can overtake one the CONNECTOR forwards.
const (
	handoffSession = 1 // an authenticated connection changes owner
	handoffBytes   = 2 // bytes the CONNECTOR's READER read for it
	handoffWatch   = 3 // the CONNECTOR's READER released the socket
	handoffClosed  = 4 // the connection ended before that
)

var errBadHandoff = errors.New("xmpp: corrupt handoff message")

// appendHandoff appends a session handoff to buf: the authenticated
// user, its socket and its service key.
func appendHandoff(buf []byte, e OnlineEntry) []byte {
	buf = append(buf, handoffSession)
	buf = binary.LittleEndian.AppendUint32(buf, e.Sock)
	buf = append(buf, byte(len(e.User)))
	buf = append(buf, e.User...)
	buf = append(buf, byte(len(e.Key)))
	return append(buf, e.Key...)
}

func decodeHandoff(b []byte) (e OnlineEntry, err error) {
	if len(b) < 6 || b[0] != handoffSession {
		return e, errBadHandoff
	}
	e.Sock = binary.LittleEndian.Uint32(b[1:])
	ul := int(b[5])
	if len(b) < 6+ul+1 {
		return e, errBadHandoff
	}
	e.User = string(b[6 : 6+ul])
	kl := int(b[6+ul])
	if len(b) != 6+ul+1+kl {
		return e, errBadHandoff
	}
	e.Key = string(b[6+ul+1:])
	return e, nil
}

// sockMsgHeader is the size of a handoff message without its bytes.
const sockMsgHeader = 7

// appendSockMsg appends one of the other handoff messages to buf: a
// kind, the socket and, for handoffBytes, the bytes.
func appendSockMsg(buf []byte, kind byte, sock uint32, data []byte) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, sock)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(data)))
	return append(buf, data...)
}

func decodeSockMsg(b []byte) (kind byte, sock uint32, data []byte, err error) {
	if len(b) < sockMsgHeader || b[0] == handoffSession {
		return 0, 0, nil, errBadHandoff
	}
	n := int(binary.LittleEndian.Uint16(b[5:]))
	if len(b) < sockMsgHeader+n {
		return 0, 0, nil, errBadHandoff
	}
	return b[0], binary.LittleEndian.Uint32(b[1:]), b[sockMsgHeader : sockMsgHeader+n], nil
}
