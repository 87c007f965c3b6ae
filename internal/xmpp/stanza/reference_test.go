package stanza

// The scanner as it was before the zero-copy rewrite, kept verbatim
// (identifiers prefixed with ref) as the oracle FuzzScannerChunks
// compares the rewrite against. It allocates freely: Attrs is a map,
// and every tag, close-tag search and attribute value is a string copy.

import (
	"fmt"
	"strings"
)

// Stanza is one parsed stream element.
type refStanza struct {
	Kind  Kind
	Name  string
	Attrs map[string]string
	Raw   []byte
}

// Attr returns an attribute value ("" when absent).
func (s *refStanza) Attr(name string) string { return s.Attrs[name] }

// Body extracts the text content of the first <body> child, unescaped.
func (s *refStanza) Body() string {
	return refChildText(s.Raw, "body")
}

// ChildText extracts the unescaped text of the first <tag>...</tag>
// child inside raw.
func refChildText(raw []byte, tag string) string {
	open := "<" + tag + ">"
	closeTag := "</" + tag + ">"
	str := string(raw)
	i := strings.Index(str, open)
	if i < 0 {
		return ""
	}
	j := strings.Index(str[i+len(open):], closeTag)
	if j < 0 {
		return ""
	}
	return refUnescape(str[i+len(open) : i+len(open)+j])
}

// refScanner incrementally splits a byte stream into stream elements. Feed
// it raw TCP chunks and drain Next until it reports no complete element.
type refScanner struct {
	buf           []byte
	sawStreamOpen bool
}

// Feed appends a received chunk.
func (sc *refScanner) Feed(p []byte) {
	sc.buf = append(sc.buf, p...)
}

// Buffered returns the number of bytes awaiting a complete element.
func (sc *refScanner) Buffered() int { return len(sc.buf) }

// Remainder returns and clears the buffered bytes that have not yet
// formed a complete element (used to hand a connection's parse state to
// another owner).
func (sc *refScanner) Remainder() []byte {
	out := sc.buf
	sc.buf = nil
	return out
}

// Next extracts the next complete element. ok is false when more bytes
// are needed.
func (sc *refScanner) Next() (st refStanza, ok bool, err error) {
	// Skip inter-stanza whitespace.
	i := 0
	for i < len(sc.buf) && refIsSpace(sc.buf[i]) {
		i++
	}
	sc.buf = sc.buf[i:]
	if len(sc.buf) == 0 {
		return refStanza{}, false, nil
	}
	if sc.buf[0] != '<' {
		return refStanza{}, false, ErrMalformed
	}
	if len(sc.buf) > MaxStanzaBytes {
		return refStanza{}, false, ErrTooLarge
	}

	// XML declaration <?xml ...?> — skip it.
	if len(sc.buf) >= 2 && sc.buf[1] == '?' {
		end := refIndexByte(sc.buf, '>')
		if end < 0 {
			return refStanza{}, false, nil
		}
		sc.buf = sc.buf[end+1:]
		return sc.Next()
	}

	// Closing </stream:stream>.
	if len(sc.buf) >= 2 && sc.buf[1] == '/' {
		end := refIndexByte(sc.buf, '>')
		if end < 0 {
			return refStanza{}, false, nil
		}
		name := strings.TrimSpace(string(sc.buf[2:end]))
		raw := sc.buf[:end+1]
		sc.buf = sc.buf[end+1:]
		if name != "stream:stream" {
			return refStanza{}, false, fmt.Errorf("%w: unexpected close tag %q", ErrMalformed, name)
		}
		return refStanza{Kind: KindStreamEnd, Name: name, Raw: raw}, true, nil
	}

	name, attrEnd, selfClosing, complete := refScanTag(sc.buf)
	if !complete {
		return refStanza{}, false, nil
	}
	if name == "" {
		return refStanza{}, false, ErrMalformed
	}

	// Stream header: emitted as soon as its open tag is complete.
	if name == "stream:stream" {
		raw := sc.buf[:attrEnd+1]
		attrs, err := refParseAttrs(raw)
		if err != nil {
			return refStanza{}, false, err
		}
		out := refStanza{Kind: KindStreamStart, Name: name, Attrs: attrs, Raw: raw}
		sc.buf = sc.buf[attrEnd+1:]
		sc.sawStreamOpen = true
		return out, true, nil
	}

	if selfClosing {
		raw := sc.buf[:attrEnd+1]
		attrs, err := refParseAttrs(raw)
		if err != nil {
			return refStanza{}, false, err
		}
		out := refStanza{Kind: KindStanza, Name: name, Attrs: attrs, Raw: raw}
		sc.buf = sc.buf[attrEnd+1:]
		return out, true, nil
	}

	// Find the matching close tag, tracking nesting of same-named tags.
	end, found := refFindClose(sc.buf, name, attrEnd+1)
	if !found {
		return refStanza{}, false, nil
	}
	raw := sc.buf[:end]
	attrs, err := refParseAttrs(sc.buf[:attrEnd+1])
	if err != nil {
		return refStanza{}, false, err
	}
	out := refStanza{Kind: KindStanza, Name: name, Attrs: attrs, Raw: raw}
	sc.buf = sc.buf[end:]
	return out, true, nil
}

func refIsSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func refIndexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// scanTag parses the open tag at the start of buf. attrEnd is the index
// of its '>'.
func refScanTag(buf []byte) (name string, attrEnd int, selfClosing, complete bool) {
	end := refIndexByte(buf, '>')
	if end < 0 {
		return "", 0, false, false
	}
	inner := buf[1:end]
	selfClosing = len(inner) > 0 && inner[len(inner)-1] == '/'
	if selfClosing {
		inner = inner[:len(inner)-1]
	}
	nameEnd := 0
	for nameEnd < len(inner) && !refIsSpace(inner[nameEnd]) {
		nameEnd++
	}
	return string(inner[:nameEnd]), end, selfClosing, true
}

// findClose locates the end (exclusive) of the element named name whose
// open tag ends at index from. It counts nested same-named elements.
func refFindClose(buf []byte, name string, from int) (end int, found bool) {
	depth := 1
	openPat := "<" + name
	closePat := "</" + name + ">"
	i := from
	str := string(buf)
	for i < len(str) {
		next := strings.IndexByte(str[i:], '<')
		if next < 0 {
			return 0, false
		}
		i += next
		if strings.HasPrefix(str[i:], closePat) {
			depth--
			if depth == 0 {
				return i + len(closePat), true
			}
			i += len(closePat)
			continue
		}
		if strings.HasPrefix(str[i:], openPat) {
			// Only count it if followed by a delimiter (avoid matching
			// <messageX when looking for <message).
			rest := str[i+len(openPat):]
			if len(rest) > 0 && (refIsSpace(rest[0]) || rest[0] == '>' || rest[0] == '/') {
				// Self-closing nested tags do not increase depth.
				gt := strings.IndexByte(rest, '>')
				if gt < 0 {
					return 0, false
				}
				if gt == 0 || rest[gt-1] != '/' {
					depth++
				}
				i += len(openPat) + gt + 1
				continue
			}
		}
		i++
	}
	return 0, false
}

// parseAttrs extracts key="value" / key='value' pairs from an open tag.
func refParseAttrs(tag []byte) (map[string]string, error) {
	attrs := make(map[string]string, 4)
	str := string(tag)
	// Strip <name ... > or <name ... />.
	gt := strings.IndexByte(str, '>')
	if gt < 0 || len(str) < 2 || str[0] != '<' {
		return nil, ErrMalformed
	}
	inner := strings.TrimSuffix(strings.TrimSpace(str[1:gt]), "/")
	// Skip the element name.
	sp := strings.IndexFunc(inner, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' })
	if sp < 0 {
		return attrs, nil
	}
	rest := strings.TrimSpace(inner[sp:])
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			break
		}
		key := strings.TrimSpace(rest[:eq])
		rest = strings.TrimSpace(rest[eq+1:])
		if len(rest) < 2 || (rest[0] != '\'' && rest[0] != '"') {
			return nil, fmt.Errorf("%w: unquoted attribute %q", ErrMalformed, key)
		}
		quote := rest[0]
		endQ := strings.IndexByte(rest[1:], quote)
		if endQ < 0 {
			return nil, fmt.Errorf("%w: unterminated attribute %q", ErrMalformed, key)
		}
		attrs[key] = refUnescape(rest[1 : 1+endQ])
		rest = strings.TrimSpace(rest[endQ+2:])
	}
	return attrs, nil
}

// Escape replaces XML-special characters in text content and attribute
// values.
func refEscape(s string) string {
	if !strings.ContainsAny(s, "&<>'\"") {
		return s
	}
	r := strings.NewReplacer(
		"&", "&amp;",
		"<", "&lt;",
		">", "&gt;",
		"'", "&apos;",
		"\"", "&quot;",
	)
	return r.Replace(s)
}

// Unescape reverses Escape.
func refUnescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	r := strings.NewReplacer(
		"&amp;", "&",
		"&lt;", "<",
		"&gt;", ">",
		"&apos;", "'",
		"&quot;", "\"",
	)
	return r.Replace(s)
}
