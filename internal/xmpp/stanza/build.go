package stanza

import (
	"fmt"
)

// Stanza and stream builders shared by the EActors service, the baseline
// servers and the client. The wire format is the XMPP-subset both sides
// of the evaluation speak.

// StreamHeader builds the opening stream element.
func StreamHeader(from, to string) string {
	return fmt.Sprintf(
		`<stream:stream from=%q to=%q version="1.0" xmlns="jabber:client" xmlns:stream="http://etherx.jabber.org/streams">`,
		Escape(from), Escape(to))
}

// StreamClose is the closing stream element.
const StreamClose = "</stream:stream>"

// Auth builds the (simplified SASL) authentication stanza. The key is
// the client's service-level session key, hex-encoded; group-chat
// re-encryption uses it (Section 5.1: the server decrypts each group
// member's messages and re-encrypts them per member).
func Auth(user, keyHex string) string {
	return fmt.Sprintf(`<auth user=%q key=%q/>`, Escape(user), Escape(keyHex))
}

// AuthSuccess is the server's acceptance reply.
const AuthSuccess = `<success xmlns="urn:ietf:params:xml:ns:xmpp-sasl"/>`

// AuthFailure is the server's rejection reply.
const AuthFailure = `<failure xmlns="urn:ietf:params:xml:ns:xmpp-sasl"/>`

// Message builds a chat message stanza.
func Message(from, to, body string) string {
	return string(AppendMessage(make([]byte, 0, 64+len(from)+len(to)+len(body)), from, to, body))
}

// AppendMessage appends Message(from, to, body) to dst, for senders
// that reuse one buffer.
func AppendMessage(dst []byte, from, to, body string) []byte {
	return appendChat(dst, from, to, "chat", body)
}

// GroupMessage builds a groupchat message stanza.
func GroupMessage(from, room, body string) string {
	return string(appendChat(make([]byte, 0, 72+len(from)+len(room)+len(body)), from, room, "groupchat", body))
}

// appendChat appends a message stanza of the given type.
func appendChat(dst []byte, from, to, typ, body string) []byte {
	dst = append(dst, `<message from="`...)
	dst = appendEscaped(dst, from)
	dst = append(dst, `" to="`...)
	dst = appendEscaped(dst, to)
	dst = append(dst, `" type="`...)
	dst = append(dst, typ...)
	dst = append(dst, `"><body>`...)
	dst = appendEscaped(dst, body)
	return append(dst, `</body></message>`...)
}

// Presence builds a presence stanza; to is typically room/nick for MUC
// joins.
func Presence(from, to string) string {
	if to == "" {
		return fmt.Sprintf(`<presence from=%q/>`, Escape(from))
	}
	return fmt.Sprintf(`<presence from=%q to=%q/>`, Escape(from), Escape(to))
}
