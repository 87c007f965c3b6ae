// Package stanza implements the XMPP subset the messaging use case needs
// (RFC 6120 core framing): stream headers, auth, presence and message
// stanzas, with an incremental scanner that extracts complete top-level
// stanzas from a TCP byte stream.
//
// The parser is deliberately small and allocation-free: the EActors
// XMPP service processes every inbound byte through it, so it sits on
// the hot path of Figures 14-17. A parsed Stanza is a view of the
// Scanner's buffer: its Raw bytes, and the attribute spans read from
// them, stay valid until the next Feed.
package stanza

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Kind classifies a parsed stream element.
type Kind int

// Stream element kinds.
const (
	// KindStreamStart is the opening <stream:stream ...> header.
	KindStreamStart Kind = iota + 1
	// KindStreamEnd is the closing </stream:stream>.
	KindStreamEnd
	// KindStanza is a complete top-level element (message, presence, iq,
	// auth, ...).
	KindStanza
)

// span is the [lo, hi) byte range of an attribute key or value in Raw.
type span struct{ lo, hi int32 }

// Stanza is one parsed stream element. Raw aliases the Scanner's buffer
// and is valid until its next Feed. Attributes are read from Raw's open
// tag on lookup, so a copy of Raw keeps the whole stanza readable.
type Stanza struct {
	Kind Kind
	Name string
	Raw  []byte
}

// Attr returns an attribute value, unescaped ("" when absent). It
// copies the value; hot paths use AttrBytes or AttrIs.
func (s *Stanza) Attr(name string) string { return Unescape(string(s.AttrBytes(name))) }

// AttrBytes returns an attribute value as it appears in Raw, still
// escaped, or nil when absent. It aliases Raw and allocates nothing.
func (s *Stanza) AttrBytes(name string) []byte {
	lo, hi, ok := s.AttrSpan(name)
	if !ok {
		return nil
	}
	return s.Raw[lo:hi]
}

// AttrIs reports whether Attr(name) == want, allocating only when the
// value holds an XML escape.
func (s *Stanza) AttrIs(name, want string) bool {
	v := s.AttrBytes(name)
	if bytes.IndexByte(v, '&') >= 0 {
		return Unescape(string(v)) == want
	}
	return string(v) == want
}

// AttrSpan returns the offsets in Raw of an attribute's escaped value;
// ok is false when it is absent. A repeated attribute yields its last
// value. Next already validated the open tag.
func (s *Stanza) AttrSpan(name string) (lo, hi int, ok bool) {
	gt := bytes.IndexByte(s.Raw, '>')
	if gt < 0 {
		return 0, 0, false
	}
	at := newAttrScanner(s.Raw, gt)
	for {
		k, v, more, _ := at.next()
		if !more {
			return lo, hi, ok
		}
		if string(s.Raw[k.lo:k.hi]) == name {
			lo, hi, ok = int(v.lo), int(v.hi), true
		}
	}
}

// validateAttrs checks the attributes of the open tag whose '>' is
// raw[gt].
func validateAttrs(raw []byte, gt int) error {
	at := newAttrScanner(raw, gt)
	for {
		_, _, more, err := at.next()
		if err != nil || !more {
			return err
		}
	}
}

// Body extracts the text content of the first <body> child, unescaped.
func (s *Stanza) Body() string {
	return ChildText(s.Raw, "body")
}

// ChildText extracts the unescaped text of the first <tag>...</tag>
// child inside raw.
func ChildText(raw []byte, tag string) string {
	lo, hi, ok := ChildSpan(raw, tag)
	if !ok {
		return ""
	}
	return Unescape(string(raw[lo:hi]))
}

// ChildSpan returns the offsets in raw of the escaped text of the first
// <tag>...</tag> child; ok is false when there is none.
func ChildSpan(raw []byte, tag string) (lo, hi int, ok bool) {
	i := indexTag(raw, tag, false)
	if i < 0 {
		return 0, 0, false
	}
	lo = i + len(tag) + 2
	j := indexTag(raw[lo:], tag, true)
	if j < 0 {
		return 0, 0, false
	}
	return lo, lo + j, true
}

// indexTag returns the index of the first "<tag>" in b ("</tag>" when
// closing), or -1.
func indexTag(b []byte, tag string, closing bool) int {
	for i := 0; ; i++ {
		j := bytes.IndexByte(b[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		p := b[i+1:]
		if closing {
			if len(p) == 0 || p[0] != '/' {
				continue
			}
			p = p[1:]
		}
		if len(p) > len(tag) && string(p[:len(tag)]) == tag && p[len(tag)] == '>' {
			return i
		}
	}
}

// Parsing errors.
var (
	ErrMalformed = errors.New("stanza: malformed XML")
	ErrTooLarge  = errors.New("stanza: stanza exceeds size limit")
)

// MaxStanzaBytes bounds the size of one stream element and of the bytes
// buffered while no element is complete (DoS guard).
const MaxStanzaBytes = 64 * 1024

// Scanner incrementally splits a byte stream into stream elements. Feed
// it raw TCP chunks and drain Next until it reports no complete element.
// Its buffer is reused: elements Next returns are valid until the next
// Feed.
type Scanner struct {
	buf []byte
	off int // start of the bytes Next has not consumed
}

// Feed appends a received chunk, first moving any partial element to
// the front of the buffer.
func (sc *Scanner) Feed(p []byte) {
	if sc.off > 0 {
		n := copy(sc.buf, sc.buf[sc.off:])
		sc.buf, sc.off = sc.buf[:n], 0
	}
	sc.buf = append(sc.buf, p...)
}

// Buffered returns the number of bytes awaiting a complete element.
func (sc *Scanner) Buffered() int { return len(sc.buf) - sc.off }

// Remainder returns and clears the buffered bytes that have not yet
// formed a complete element (used to hand a connection's parse state to
// another owner).
func (sc *Scanner) Remainder() []byte {
	out := sc.buf[sc.off:]
	sc.buf, sc.off = nil, 0
	return out
}

// Next extracts the next complete element. ok is false when more bytes
// are needed.
func (sc *Scanner) Next() (st Stanza, ok bool, err error) {
	for {
		// Skip inter-stanza whitespace.
		for sc.off < len(sc.buf) && isSpace(sc.buf[sc.off]) {
			sc.off++
		}
		buf := sc.buf[sc.off:]
		if len(buf) == 0 {
			// Drained: rewind, and let a rare large burst free its array.
			sc.buf, sc.off = sc.buf[:0], 0
			if cap(sc.buf) > MaxStanzaBytes {
				sc.buf = nil
			}
			return Stanza{}, false, nil
		}
		if buf[0] != '<' {
			return Stanza{}, false, ErrMalformed
		}
		gt := bytes.IndexByte(buf, '>')
		if gt < 0 {
			return sc.incomplete()
		}
		if gt >= MaxStanzaBytes {
			return Stanza{}, false, ErrTooLarge
		}
		switch buf[1] {
		case '?':
			// XML declaration <?xml ...?> — skip it.
			sc.off += gt + 1
			continue
		case '/':
			// Closing </stream:stream>.
			name := bytes.TrimSpace(buf[2:gt])
			sc.off += gt + 1
			if string(name) != "stream:stream" {
				return Stanza{}, false, fmt.Errorf("%w: unexpected close tag %q", ErrMalformed, name)
			}
			return Stanza{Kind: KindStreamEnd, Name: "stream:stream", Raw: buf[: gt+1 : gt+1]}, true, nil
		}
		return sc.element(buf, gt)
	}
}

// element finishes the element whose open tag ends at buf[gt].
func (sc *Scanner) element(buf []byte, gt int) (Stanza, bool, error) {
	inner := buf[1:gt]
	selfClosing := len(inner) > 0 && inner[len(inner)-1] == '/'
	if selfClosing {
		inner = inner[:len(inner)-1]
	}
	nameEnd := 0
	for nameEnd < len(inner) && !isSpace(inner[nameEnd]) {
		nameEnd++
	}
	name := inner[:nameEnd]
	if len(name) == 0 {
		return Stanza{}, false, ErrMalformed
	}
	// The stream header is emitted as soon as its open tag is complete;
	// any other element once its matching close tag is.
	st := Stanza{Kind: KindStanza}
	end := gt + 1
	switch {
	case string(name) == "stream:stream":
		st.Kind = KindStreamStart
	case !selfClosing:
		var found bool
		if end, found = findClose(buf, name, gt+1); !found {
			return sc.incomplete()
		}
		if end > MaxStanzaBytes {
			return Stanza{}, false, ErrTooLarge
		}
	}
	if err := validateAttrs(buf, gt); err != nil {
		return Stanza{}, false, err
	}
	st.Raw = buf[:end:end]
	st.Name = internName(name)
	sc.off += end
	return st, true, nil
}

// incomplete reports that no element is complete yet, or ErrTooLarge
// once the bytes waiting for one exceed MaxStanzaBytes. Complete
// elements buffered behind each other are never too large together.
func (sc *Scanner) incomplete() (Stanza, bool, error) {
	if sc.Buffered() > MaxStanzaBytes {
		return Stanza{}, false, ErrTooLarge
	}
	return Stanza{}, false, nil
}

// internName returns the names the services dispatch on as constants,
// so a stanza's Name costs no allocation on the message path.
func internName(b []byte) string {
	switch string(b) {
	case "message":
		return "message"
	case "presence":
		return "presence"
	case "iq":
		return "iq"
	case "auth":
		return "auth"
	case "success":
		return "success"
	case "failure":
		return "failure"
	case "stream:stream":
		return "stream:stream"
	}
	return string(b)
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// findClose locates the end (exclusive) of the element named name whose
// open tag ends at index from. It counts nested same-named elements.
func findClose(buf, name []byte, from int) (end int, found bool) {
	depth := 1
	i := from
	for i < len(buf) {
		next := bytes.IndexByte(buf[i:], '<')
		if next < 0 {
			return 0, false
		}
		i += next
		rest := buf[i+1:]
		// </name>
		if len(rest) > len(name)+1 && rest[0] == '/' && bytes.Equal(rest[1:1+len(name)], name) && rest[1+len(name)] == '>' {
			i += len(name) + 3
			if depth--; depth == 0 {
				return i, true
			}
			continue
		}
		// <name followed by a delimiter (not <nameX): a nested open tag,
		// which raises the depth unless it is self-closing.
		if bytes.HasPrefix(rest, name) {
			rest = rest[len(name):]
			if len(rest) > 0 && (isSpace(rest[0]) || rest[0] == '>' || rest[0] == '/') {
				gt := bytes.IndexByte(rest, '>')
				if gt < 0 {
					return 0, false
				}
				if gt == 0 || rest[gt-1] != '/' {
					depth++
				}
				i += 1 + len(name) + gt + 1
				continue
			}
		}
		i++
	}
	return 0, false
}

// attrScanner walks the key="value" pairs of an open tag: the element
// name is everything up to the first ASCII blank, keys and values are
// trimmed of Unicode white space, and text after the last '=' is
// ignored.
type attrScanner struct {
	raw    []byte
	lo, hi int // the unread attribute text
}

// newAttrScanner starts on the open tag at the front of raw whose '>'
// is raw[gt].
func newAttrScanner(raw []byte, gt int) attrScanner {
	lo, hi := trimSpace(raw, 1, gt)
	if hi > lo && raw[hi-1] == '/' {
		hi--
	}
	for lo < hi && !isSpace(raw[lo]) {
		lo++
	}
	lo, hi = trimSpace(raw, lo, hi)
	return attrScanner{raw: raw, lo: lo, hi: hi}
}

// next returns the next attribute's key and escaped value; more is
// false once no '=' is left.
func (a *attrScanner) next() (key, val span, more bool, err error) {
	eq := bytes.IndexByte(a.raw[a.lo:a.hi], '=')
	if eq < 0 {
		return span{}, span{}, false, nil
	}
	kLo, kHi := trimSpace(a.raw, a.lo, a.lo+eq)
	vLo, vHi := trimSpace(a.raw, a.lo+eq+1, a.hi)
	if vHi-vLo < 2 || (a.raw[vLo] != '\'' && a.raw[vLo] != '"') {
		return span{}, span{}, false, fmt.Errorf("%w: unquoted attribute %q", ErrMalformed, a.raw[kLo:kHi])
	}
	q := bytes.IndexByte(a.raw[vLo+1:vHi], a.raw[vLo])
	if q < 0 {
		return span{}, span{}, false, fmt.Errorf("%w: unterminated attribute %q", ErrMalformed, a.raw[kLo:kHi])
	}
	a.lo, a.hi = trimSpace(a.raw, vLo+q+2, vHi)
	return span{int32(kLo), int32(kHi)}, span{int32(vLo + 1), int32(vLo + 1 + q)}, true, nil
}

// trimSpace returns the bounds in b of bytes.TrimSpace(b[lo:hi]). The
// trimmed slice shares b's array, so its offset is cap(b) - cap(t).
func trimSpace(b []byte, lo, hi int) (int, int) {
	t := bytes.TrimSpace(b[lo:hi])
	if len(t) == 0 {
		return hi, hi
	}
	lo = cap(b) - cap(t)
	return lo, lo + len(t)
}

// Escape replaces XML-special characters in text content and attribute
// values.
func Escape(s string) string {
	if !strings.ContainsAny(s, specials) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, 2*len(s)), s))
}

// appendEscaped appends Escape(s) to dst.
func appendEscaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, specials)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, entities[s[i]]...)
		s = s[i+1:]
	}
}

// specials are the bytes Escape replaces, each by its entity.
const specials = "&<>'\""

var entities = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\'': "&apos;", '"': "&quot;"}

// unescaper is built once: a Replacer is safe for concurrent use.
var unescaper = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&apos;", "'",
	"&quot;", "\"",
)

// Unescape reverses Escape.
func Unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return unescaper.Replace(s)
}
