package stanza

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/eactors/eactors-go/internal/testutil/allocs"
)

func scanAll(t *testing.T, input string) []Stanza {
	t.Helper()
	var sc Scanner
	sc.Feed([]byte(input))
	var out []Stanza
	for {
		st, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, st)
	}
}

func TestScannerStreamHeader(t *testing.T) {
	hdr := StreamHeader("client", "server")
	got := scanAll(t, hdr)
	if len(got) != 1 {
		t.Fatalf("stanzas = %d, want 1", len(got))
	}
	st := got[0]
	if st.Kind != KindStreamStart || st.Name != "stream:stream" {
		t.Fatalf("kind=%v name=%q", st.Kind, st.Name)
	}
	if st.Attr("from") != "client" || st.Attr("to") != "server" {
		t.Fatalf("attrs of %s: from=%q to=%q", st.Raw, st.Attr("from"), st.Attr("to"))
	}
}

func TestScannerStreamEnd(t *testing.T) {
	got := scanAll(t, StreamClose)
	if len(got) != 1 || got[0].Kind != KindStreamEnd {
		t.Fatalf("got %+v", got)
	}
}

func TestScannerMessage(t *testing.T) {
	msg := Message("alice", "bob", "hello <world> & 'friends'")
	got := scanAll(t, msg)
	if len(got) != 1 {
		t.Fatalf("stanzas = %d, want 1", len(got))
	}
	st := got[0]
	if st.Name != "message" || st.Attr("from") != "alice" || st.Attr("to") != "bob" {
		t.Fatalf("parsed %+v", st)
	}
	if st.Attr("type") != "chat" {
		t.Fatalf("type = %q", st.Attr("type"))
	}
	if body := st.Body(); body != "hello <world> & 'friends'" {
		t.Fatalf("body = %q", body)
	}
}

func TestScannerSelfClosing(t *testing.T) {
	got := scanAll(t, `<presence from="alice" to="room/alice"/>`)
	if len(got) != 1 || got[0].Name != "presence" {
		t.Fatalf("got %+v", got)
	}
	if got[0].Attr("to") != "room/alice" {
		t.Fatalf("attrs of %s", got[0].Raw)
	}
}

func TestScannerMultipleStanzas(t *testing.T) {
	input := Message("a", "b", "one") + Presence("a", "") + Message("b", "a", "two")
	got := scanAll(t, input)
	if len(got) != 3 {
		t.Fatalf("stanzas = %d, want 3", len(got))
	}
	if got[0].Body() != "one" || got[2].Body() != "two" {
		t.Fatalf("bodies = %q, %q", got[0].Body(), got[2].Body())
	}
}

func TestScannerIncrementalFeed(t *testing.T) {
	msg := Message("alice", "bob", "split across many tcp segments")
	var sc Scanner
	for i := 0; i < len(msg); i++ {
		sc.Feed([]byte{msg[i]})
		st, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("Next at byte %d: %v", i, err)
		}
		if ok {
			if i != len(msg)-1 {
				t.Fatalf("stanza completed early at byte %d", i)
			}
			if st.Body() != "split across many tcp segments" {
				t.Fatalf("body = %q", st.Body())
			}
			return
		}
	}
	t.Fatal("stanza never completed")
}

func TestScannerNestedSameName(t *testing.T) {
	input := `<message to="x"><message>inner</message><body>outer</body></message>`
	got := scanAll(t, input)
	if len(got) != 1 {
		t.Fatalf("stanzas = %d, want 1", len(got))
	}
	if !strings.Contains(string(got[0].Raw), "inner") {
		t.Fatal("nested element truncated")
	}
}

func TestScannerWhitespaceKeepalive(t *testing.T) {
	got := scanAll(t, "\n \t"+Presence("a", "")+" \n")
	if len(got) != 1 {
		t.Fatalf("stanzas = %d, want 1", len(got))
	}
}

func TestScannerXMLDecl(t *testing.T) {
	got := scanAll(t, `<?xml version="1.0"?>`+StreamHeader("c", "s"))
	if len(got) != 1 || got[0].Kind != KindStreamStart {
		t.Fatalf("got %+v", got)
	}
}

func TestScannerMalformed(t *testing.T) {
	var sc Scanner
	sc.Feed([]byte("not xml at all"))
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestScannerUnexpectedClose(t *testing.T) {
	var sc Scanner
	sc.Feed([]byte("</message>"))
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("stray close tag accepted")
	}
}

func TestScannerTooLarge(t *testing.T) {
	var sc Scanner
	sc.Feed([]byte("<message>"))
	sc.Feed(make([]byte, MaxStanzaBytes+1))
	if _, _, err := sc.Next(); err != ErrTooLarge {
		t.Fatalf("oversized err = %v, want ErrTooLarge", err)
	}
}

func TestAuthRoundTrip(t *testing.T) {
	got := scanAll(t, Auth("alice", "deadbeef"))
	if len(got) != 1 || got[0].Name != "auth" {
		t.Fatalf("got %+v", got)
	}
	if got[0].Attr("user") != "alice" || got[0].Attr("key") != "deadbeef" {
		t.Fatalf("attrs of %s", got[0].Raw)
	}
}

func TestGroupMessage(t *testing.T) {
	got := scanAll(t, GroupMessage("alice", "room1", "hi all"))
	st := got[0]
	if st.Attr("type") != "groupchat" || st.Attr("to") != "room1" || st.Body() != "hi all" {
		t.Fatalf("parsed %+v body=%q", st, st.Body())
	}
}

func TestEscapeUnescape(t *testing.T) {
	cases := []string{
		"plain",
		"<tag>",
		"a & b",
		`quotes " and '`,
		"&amp; already escaped",
		"",
	}
	for _, c := range cases {
		if got := Unescape(Escape(c)); got != c {
			t.Fatalf("roundtrip(%q) = %q", c, got)
		}
	}
}

func TestEscapeQuick(t *testing.T) {
	f := func(s string) bool { return Unescape(Escape(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageQuickRoundTrip(t *testing.T) {
	f := func(from, to, body string) bool {
		// The scanner is byte-oriented; restrict to valid UTF-8 free of
		// NULs, which the builders escape correctly.
		msg := Message(from, to, body)
		var sc Scanner
		sc.Feed([]byte(msg))
		st, ok, err := sc.Next()
		if err != nil || !ok {
			return false
		}
		return st.Attr("from") == from && st.Attr("to") == to && st.Body() == body
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChildTextMissing(t *testing.T) {
	if ChildText([]byte("<message></message>"), "body") != "" {
		t.Fatal("missing child returned text")
	}
	if ChildText([]byte("<message><body>unclosed"), "body") != "" {
		t.Fatal("unclosed child returned text")
	}
}

// TestScannerBurstOfCompleteStanzas: many complete stanzas buffered at
// once are not too large together; the limit is per element and for
// bytes that have not yet formed one.
func TestScannerBurstOfCompleteStanzas(t *testing.T) {
	const n = 4000
	burst := strings.Repeat(`<presence from="a"/>`, n)
	if len(burst) <= MaxStanzaBytes {
		t.Fatalf("burst of %d bytes does not exceed MaxStanzaBytes", len(burst))
	}
	var sc Scanner
	sc.Feed([]byte(burst))
	for i := 0; i < n; i++ {
		st, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("element %d: ok=%v err=%v", i, ok, err)
		}
		if st.Name != "presence" || !st.AttrIs("from", "a") {
			t.Fatalf("element %d: %s", i, st.Raw)
		}
	}
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("after the burst: ok=%v err=%v", ok, err)
	}
}

// TestScannerElementTooLarge: one complete element longer than
// MaxStanzaBytes is still rejected, whole or split.
func TestScannerElementTooLarge(t *testing.T) {
	big := Message("a", "b", strings.Repeat("x", MaxStanzaBytes))
	var whole Scanner
	whole.Feed([]byte(big))
	if _, _, err := whole.Next(); err != ErrTooLarge {
		t.Fatalf("whole: err = %v, want ErrTooLarge", err)
	}
	var split Scanner
	for i := 0; i < len(big); i += 4096 {
		split.Feed([]byte(big[i:min(i+4096, len(big))]))
		if _, _, err := split.Next(); err == ErrTooLarge {
			return
		} else if err != nil {
			t.Fatalf("split at %d: %v", i, err)
		}
	}
	t.Fatal("split: never ErrTooLarge")
}

// TestStanzaAttrs covers the attribute accessors: escaped values,
// a repeated key (the last one wins), an absent key, many attributes,
// and a stanza with no Raw.
func TestStanzaAttrs(t *testing.T) {
	got := scanAll(t, `<iq a="1" b="2" c="3" d="4" e="5" f="6" g="7" h="8" i='x &amp; y' a="last"/>`)
	st := &got[0]
	if st.Attr("i") != "x & y" || !st.AttrIs("i", "x & y") || string(st.AttrBytes("i")) != "x &amp; y" {
		t.Fatalf("i: Attr=%q AttrBytes=%q", st.Attr("i"), st.AttrBytes("i"))
	}
	if st.Attr("a") != "last" || st.Attr("h") != "8" {
		t.Fatalf("a=%q h=%q", st.Attr("a"), st.Attr("h"))
	}
	if st.AttrBytes("z") != nil || st.Attr("z") != "" || !st.AttrIs("z", "") || st.AttrIs("z", "1") {
		t.Fatal("absent attribute reported present")
	}
	if lo, hi, ok := st.AttrSpan("b"); !ok || string(st.Raw[lo:hi]) != "2" {
		t.Fatalf("AttrSpan(b) = %d, %d, %v", lo, hi, ok)
	}
	var zero Stanza
	if _, _, ok := zero.AttrSpan("a"); ok || zero.Attr("a") != "" {
		t.Fatal("zero Stanza reported an attribute")
	}
}

// TestStanzaCopySurvivesFeed: a stanza whose Raw is copied stays intact when the
// scanner's buffer is reused by the next Feed.
func TestStanzaCopySurvivesFeed(t *testing.T) {
	var sc Scanner
	sc.Feed([]byte(Message("alice", "bob", "first")))
	st, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	kept := st
	kept.Raw = append([]byte(nil), st.Raw...)
	sc.Feed([]byte(Message("carol", "dave", "other")))
	if kept.Attr("from") != "alice" || kept.Attr("to") != "bob" || kept.Body() != "first" {
		t.Fatalf("copy changed: %s", kept.Raw)
	}
}

// TestScannerAllocatesNothing: feeding and scanning a chat message and
// reading the attributes the shard routes on allocates nothing.
func TestScannerAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	msg := []byte(Message("alice", "bob", strings.Repeat("payload ", 19)))
	var sc Scanner
	step := func() {
		sc.Feed(msg)
		st, ok, err := sc.Next()
		if err != nil || !ok || st.Name != "message" || !st.AttrIs("from", "alice") ||
			string(st.AttrBytes("to")) != "bob" || st.AttrIs("type", "groupchat") {
			t.Fatalf("scan: ok=%v err=%v %s", ok, err, st.Raw)
		}
		if _, _, ok := ChildSpan(st.Raw, "body"); !ok {
			t.Fatal("no body")
		}
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("Feed + Next + attribute reads allocate %v times per message, want 0", n)
	}
}
