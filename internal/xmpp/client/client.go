// Package client implements an XMPP client for the EActors messaging
// service and its baselines — the role libstrophe plays in the paper's
// evaluation (Section 6.4): it connects, authenticates, exchanges chat
// and group-chat messages, and is driven by the benchmark harness.
package client

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// Client is one connected XMPP user.
type Client struct {
	conn    net.Conn
	user    string
	scanner stanza.Scanner
	readBuf []byte

	// wmu serialises SendMessage, which builds each stanza in wbuf.
	wmu  sync.Mutex
	wbuf []byte

	key        [ecrypto.KeySize]byte
	bodyCipher *ecrypto.Cipher
	openCipher *ecrypto.Cipher
}

// Errors returned by the client.
var (
	ErrAuthRejected = errors.New("client: authentication rejected")
	ErrStreamClosed = errors.New("client: server closed the stream")
)

// Dial connects to addr, opens the stream and authenticates as user.
func Dial(addr, user string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial: %w", err)
	}
	c := &Client{
		conn:    conn,
		user:    user,
		readBuf: make([]byte, 4096),
	}
	if _, err := rand.Read(c.key[:]); err != nil {
		conn.Close()
		return nil, err
	}
	c.bodyCipher, err = xmpp.NewClientBodyCipher(c.key)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The server seals group bodies for us with a server-direction
	// cipher over the same key.
	srvCipher, err := ecrypto.NewCipher(c.key, 0xFF) // tag irrelevant for Open
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.openCipher = srvCipher

	deadline := time.Now().Add(timeout)
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write([]byte(stanza.StreamHeader(user, xmpp.ServiceName))); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: stream header: %w", err)
	}
	// Server stream header.
	el, err := c.next()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if el.Kind != stanza.KindStreamStart {
		conn.Close()
		return nil, fmt.Errorf("client: expected stream header, got %q", el.Name)
	}
	// Authenticate.
	auth := stanza.Auth(user, hex.EncodeToString(c.key[:]))
	if _, err := conn.Write([]byte(auth)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: auth: %w", err)
	}
	el, err = c.next()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if el.Name != "success" {
		conn.Close()
		return nil, ErrAuthRejected
	}
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// User returns the authenticated user name.
func (c *Client) User() string { return c.user }

// next reads until one complete stream element is available.
func (c *Client) next() (stanza.Stanza, error) {
	for {
		el, ok, err := c.scanner.Next()
		if err != nil {
			return stanza.Stanza{}, err
		}
		if ok {
			return el, nil
		}
		n, err := c.conn.Read(c.readBuf)
		if err != nil {
			return stanza.Stanza{}, err
		}
		c.scanner.Feed(c.readBuf[:n])
	}
}

// SendMessage sends a one-to-one chat message. The body travels as
// given; real deployments put their end-to-end ciphertext here. The
// stanza is built in a buffer the client reuses, so it allocates
// nothing; concurrent senders take turns.
func (c *Client) SendMessage(to, body string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = stanza.AppendMessage(c.wbuf[:0], c.user, to, body)
	_, err := c.conn.Write(c.wbuf)
	return err
}

// JoinRoom joins a group chat.
func (c *Client) JoinRoom(room string) error {
	_, err := c.conn.Write([]byte(stanza.Presence(c.user, room+"/"+c.user)))
	return err
}

// LeaveRoom leaves a group chat.
func (c *Client) LeaveRoom(room string) error {
	_, err := c.conn.Write([]byte(fmt.Sprintf(
		`<presence from=%q to=%q type="unavailable"/>`,
		stanza.Escape(c.user), stanza.Escape(room+"/"+c.user))))
	return err
}

// SendGroupMessage seals body with the client's service key and sends it
// to the room; the service re-encrypts it per member.
func (c *Client) SendGroupMessage(room, body string) error {
	sealed := xmpp.SealBodyWith(c.bodyCipher, body)
	_, err := c.conn.Write([]byte(stanza.GroupMessage(c.user, room, sealed)))
	return err
}

// SendRaw writes raw bytes onto the stream (tests and protocol tools).
func (c *Client) SendRaw(raw string) error {
	_, err := c.conn.Write([]byte(raw))
	return err
}

// PingQuery is the iq child of an XEP-0199 ping.
const PingQuery = "<ping/>"

// WhoQuery is the iq child that asks whether user is online; WhoOnline
// reads the answer from its result.
func WhoQuery(user string) string { return "<who>" + stanza.Escape(user) + "</who>" }

// WhoOnline reports the online state a WhoQuery result carries.
func WhoOnline(result stanza.Stanza) bool { return stanza.ChildText(result.Raw, "status") == "online" }

// SendIQ sends a get iq with the given child element and returns its
// id. Whoever reads the stream recognises the answer with IQResult, so
// a client with a reader goroutine needs no second reader for iqs.
func (c *Client) SendIQ(child string) (string, error) {
	id := fmt.Sprintf("iq-%d", time.Now().UnixNano())
	iq := fmt.Sprintf(`<iq type="get" id=%q from=%q>%s</iq>`,
		stanza.Escape(id), stanza.Escape(c.user), child)
	_, err := c.conn.Write([]byte(iq))
	return id, err
}

// IQResult reports whether el answers the iq with the given id, and
// returns an error when that answer is not a result.
func IQResult(el stanza.Stanza, id string) (bool, error) {
	if el.Kind != stanza.KindStanza || el.Name != "iq" || el.Attr("id") != id {
		return false, nil
	}
	if el.Attr("type") != "result" {
		return true, fmt.Errorf("client: iq %s answered with type %q", id, el.Attr("type"))
	}
	return true, nil
}

// Message is a received chat message. From, To and Body (unless it
// held XML escapes or a sealed group body) are slices of one string copy
// of the whole stanza, so a caller that keeps one field long after the
// others should strings.Clone it rather than pin the whole stanza.
type Message struct {
	From  string
	To    string
	Body  string
	Group bool
}

// ReadMessage blocks (up to timeout; zero means no deadline) for the
// next chat or groupchat message, transparently unsealing group bodies.
func (c *Client) ReadMessage(timeout time.Duration) (Message, error) {
	if timeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	for {
		el, err := c.readStanza()
		if err != nil {
			return Message{}, err
		}
		if el.Name == "message" {
			return c.Decode(el)
		}
		// Ignore presences and other stanzas.
	}
}

// ReadStanza blocks (up to timeout; zero means no deadline) for the
// next stanza; the end of the stream is ErrStreamClosed. The stanza is a
// copy, so callers may keep it past the next read.
func (c *Client) ReadStanza(timeout time.Duration) (stanza.Stanza, error) {
	if timeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	el, err := c.readStanza()
	el.Raw = bytes.Clone(el.Raw)
	return el, err
}

// readStanza reads until the next stanza, skipping other stream
// elements. The stanza aliases the scanner's buffer: it is valid until
// the next read.
func (c *Client) readStanza() (stanza.Stanza, error) {
	for {
		el, err := c.next()
		if err != nil {
			return stanza.Stanza{}, err
		}
		switch el.Kind {
		case stanza.KindStreamEnd:
			return stanza.Stanza{}, ErrStreamClosed
		case stanza.KindStanza:
			return el, nil
		}
	}
}

// Decode turns a message stanza into a Message, unsealing a group body.
// It copies the stanza once and slices the fields from that copy, so a
// chat message without XML escapes costs one allocation.
func (c *Client) Decode(el stanza.Stanza) (Message, error) {
	raw := string(el.Raw)
	text := func(lo, hi int, ok bool) string {
		if !ok {
			return ""
		}
		return stanza.Unescape(raw[lo:hi])
	}
	m := Message{
		From:  text(el.AttrSpan("from")),
		To:    text(el.AttrSpan("to")),
		Body:  text(stanza.ChildSpan(el.Raw, "body")),
		Group: el.AttrIs("type", "groupchat"),
	}
	if m.Group {
		body, err := xmpp.OpenBodyWith(c.openCipher, m.Body)
		if err != nil {
			return Message{}, fmt.Errorf("client: unseal group body: %w", err)
		}
		m.Body = body
	}
	return m, nil
}

// Close ends the stream and closes the connection.
func (c *Client) Close() error {
	_, _ = c.conn.Write([]byte(stanza.StreamClose))
	return c.conn.Close()
}
