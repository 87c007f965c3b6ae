package stanza

import (
	"bytes"
	"errors"
	"maps"
	"testing"
)

// FuzzScanner asserts that arbitrary byte streams never panic or hang
// the scanner and that anything it parses can be re-parsed from its Raw
// form. (go test runs the seed corpus; `go test -fuzz=FuzzScanner`
// explores further.)
func FuzzScanner(f *testing.F) {
	f.Add([]byte(StreamHeader("a", "b")))
	f.Add([]byte(Message("alice", "bob", "hello <&> world")))
	f.Add([]byte(Presence("a", "room/a")))
	f.Add([]byte(Auth("user", "deadbeef")))
	f.Add([]byte(StreamClose))
	f.Add([]byte("<a><b/><a></a></a>"))
	f.Add([]byte("<?xml version=\"1.0\"?><presence/>"))
	f.Add([]byte("garbage < not xml"))
	f.Add([]byte{0, 1, 2, '<', 'x', '>'})

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scanner
		sc.Feed(data)
		for i := 0; i < 1000; i++ {
			el, ok, err := sc.Next()
			if err != nil {
				return
			}
			if !ok {
				return
			}
			if el.Kind == KindStanza || el.Kind == KindStreamStart {
				// Raw must itself parse to the same element name.
				var re Scanner
				re.Feed(el.Raw)
				el2, ok2, err2 := re.Next()
				if err2 != nil || !ok2 {
					t.Fatalf("Raw of %q did not re-parse: ok=%v err=%v", el.Name, ok2, err2)
				}
				if el2.Name != el.Name {
					t.Fatalf("re-parse name %q != %q", el2.Name, el.Name)
				}
			}
		}
		t.Fatalf("scanner produced 1000 elements from %d bytes (livelock?)", len(data))
	})
}

// FuzzEscape asserts the escaping round trip on arbitrary strings, and
// that Escape and Unescape agree with the reference implementations.
func FuzzEscape(f *testing.F) {
	f.Add("plain")
	f.Add("<&>'\"")
	f.Add("&amp;&lt;")
	f.Fuzz(func(t *testing.T, s string) {
		if got := Unescape(Escape(s)); got != s {
			t.Fatalf("roundtrip(%q) = %q", s, got)
		}
		if got, want := Escape(s), refEscape(s); got != want {
			t.Fatalf("Escape(%q) = %q, reference %q", s, got, want)
		}
		if got, want := Unescape(s), refUnescape(s); got != want {
			t.Fatalf("Unescape(%q) = %q, reference %q", s, got, want)
		}
	})
}

// FuzzScannerChunks feeds the input to the Scanner in chunks whose
// lengths the fuzzer picks (one per byte of cuts; the rest goes in
// whole) and requires what the reference scanner reports for the whole
// input at once: the same elements with the same kind, name, Raw, Body
// and attributes, and an error exactly where it reports one. The only
// permitted difference is that the Scanner does not report ErrTooLarge
// for complete elements that merely add up to more than MaxStanzaBytes,
// so a reference ErrTooLarge ends the comparison.
func FuzzScannerChunks(f *testing.F) {
	msg := Message("alice", "bob", "hello <&> world")
	f.Add([]byte(StreamHeader("a", "b")+Auth("u", "k")+msg+StreamClose), []byte{10, 0, 3})
	f.Add([]byte(msg+msg), []byte{byte(len(msg) - 1), 1, 1})
	f.Add([]byte(`<iq a="1" b="2" c="3" d="4" e="5" f="6" g="7" h="8" i="9" a='x'><ping/></iq>`), []byte{40})
	f.Add([]byte("<message><message/><message>x</message></message> \n<presence\v x='1'/>"), []byte{9, 9, 9})
	f.Add([]byte("<?xml version=\"1.0\"?><a b = \" c \" d='e'>&amp;</a></b>"), []byte{2})
	f.Add([]byte("<m a='unterminated/><m a=b/>"), []byte{1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var ref refScanner
		ref.Feed(data)
		var sc Scanner
		rest := data
		for i := 0; i < 1000; i++ {
			want, wantOK, wantErr := ref.Next()
			if errors.Is(wantErr, ErrTooLarge) {
				return
			}
			got, ok, err := sc.Next()
			for !ok && err == nil && len(rest) > 0 {
				n := len(rest)
				if len(cuts) > 0 {
					n = min(int(cuts[0]), n)
					cuts = cuts[1:]
				}
				sc.Feed(rest[:n])
				rest = rest[n:]
				got, ok, err = sc.Next()
			}
			if (err != nil) != (wantErr != nil) || ok != wantOK {
				t.Fatalf("element %d: got ok=%v err=%v, reference ok=%v err=%v", i, ok, err, wantOK, wantErr)
			}
			if err != nil || !ok {
				return
			}
			if got.Kind != want.Kind || got.Name != want.Name || !bytes.Equal(got.Raw, want.Raw) {
				t.Fatalf("element %d: got %v %q %q, reference %v %q %q", i, got.Kind, got.Name, got.Raw, want.Kind, want.Name, want.Raw)
			}
			if got.Body() != want.Body() {
				t.Fatalf("element %d: body %q, reference %q", i, got.Body(), want.Body())
			}
			if attrs := attrMap(&got); !maps.Equal(attrs, want.Attrs) {
				t.Fatalf("element %d: attrs %q, reference %q", i, attrs, want.Attrs)
			}
		}
		t.Fatalf("1000 elements from %d bytes (livelock?)", len(data))
	})
}

// attrMap collects every attribute key of st with its value as Attr
// reports it.
func attrMap(st *Stanza) map[string]string {
	if st.Kind == KindStreamEnd {
		return nil
	}
	m := map[string]string{}
	at := newAttrScanner(st.Raw, bytes.IndexByte(st.Raw, '>'))
	for {
		k, _, more, _ := at.next()
		if !more {
			return m
		}
		key := string(st.Raw[k.lo:k.hi])
		m[key] = st.Attr(key)
	}
}
