package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, c := range []Ctx{{}, {TraceID: 1}, {TraceID: 1<<64 - 1, Span: 1<<32 - 1}, {TraceID: 42, Span: 7}} {
		enc := AppendHeader(nil, c)
		if len(enc) != HeaderSize {
			t.Fatalf("encoded %d bytes, want %d", len(enc), HeaderSize)
		}
		got, ok := DecodeHeader(enc)
		if !ok || got != c {
			t.Fatalf("round trip %+v -> %+v ok=%v", c, got, ok)
		}
	}
}

func TestDecodeHeaderMalformed(t *testing.T) {
	if _, ok := DecodeHeader(nil); ok {
		t.Fatal("nil decoded")
	}
	if _, ok := DecodeHeader(make([]byte, HeaderSize-1)); ok {
		t.Fatal("short decoded")
	}
	bad := AppendHeader(nil, Ctx{TraceID: 9, Span: 3})
	bad[13] ^= 0xFF // corrupt the magic
	if _, ok := DecodeHeader(bad); ok {
		t.Fatal("bad magic decoded")
	}
}

func TestSplitTrailer(t *testing.T) {
	payload := []byte("GET key-1")
	framed := AppendHeader(append([]byte(nil), payload...), Ctx{TraceID: 5, Span: 2})
	got, c := SplitTrailer(framed)
	if !bytes.Equal(got, payload) || c.TraceID != 5 || c.Span != 2 {
		t.Fatalf("split = %q %+v", got, c)
	}
	// Untraced trailer strips too (deterministic framing).
	framed = AppendHeader(append([]byte(nil), payload...), Ctx{})
	got, c = SplitTrailer(framed)
	if !bytes.Equal(got, payload) || c.Traced() {
		t.Fatalf("untraced split = %q %+v", got, c)
	}
	// No trailer at all: payload passes through untouched.
	got, c = SplitTrailer(payload)
	if !bytes.Equal(got, payload) || c.Traced() {
		t.Fatalf("trailerless split = %q %+v", got, c)
	}
}

func TestScope(t *testing.T) {
	var s *Scope
	s.Adopt(Ctx{TraceID: 1}) // nil receiver: no-op
	s.Clear()
	if s.Active().Traced() {
		t.Fatal("nil scope traced")
	}
	s = &Scope{}
	if s.Active().Traced() {
		t.Fatal("fresh scope traced")
	}
	s.Adopt(Ctx{TraceID: 3, Span: 8})
	if c := s.Active(); c.TraceID != 3 || c.Span != 8 {
		t.Fatalf("active = %+v", c)
	}
	s.Clear()
	if s.Active().Traced() {
		t.Fatal("cleared scope traced")
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	if _, ok := tr.MaybeRoot(new(uint32)); ok {
		t.Fatal("nil tracer rooted")
	}
	if tr.NewRoot().Traced() || tr.NextSpan() != 0 || tr.SampleEvery() != 0 {
		t.Fatal("nil tracer allocated")
	}
	tr.Record(0, Span{TraceID: 1})
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	if !tr.Begin(&Scope{}).IsZero() {
		t.Fatal("nil Begin armed")
	}
	tr.End(0, &Scope{}, KindSend, 0, time.Now())
	tr.NameChannel(0, "x")
	tr.NameActor(0, "x")
	if tr.RefName(KindSend, 0) != "" {
		t.Fatal("nil name resolved")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestMaybeRootSampling(t *testing.T) {
	tr := New(1, 64, 8)
	if tr.SampleEvery() != 8 {
		t.Fatalf("SampleEvery = %d", tr.SampleEvery())
	}
	var tick uint32
	roots := 0
	for i := 0; i < 64; i++ {
		if _, ok := tr.MaybeRoot(&tick); ok {
			roots++
		}
	}
	if roots != 8 {
		t.Fatalf("rooted %d of 64 at 1-in-8", roots)
	}
}

func TestRecordSnapshot(t *testing.T) {
	tr := New(2, 64, 0)
	root := tr.NewRoot()
	id := tr.NextSpan()
	tr.Record(0, Span{TraceID: root.TraceID, ID: id, Kind: KindNetRead, Ref: 7, Start: 1000, Dur: 50})
	tr.Record(1, Span{TraceID: root.TraceID, ID: tr.NextSpan(), Parent: id, Kind: KindInvoke, Ref: 2, Start: 1100, Dur: 30})
	tr.Record(99, Span{TraceID: root.TraceID, ID: tr.NextSpan(), Parent: id, Kind: KindSend, Ref: 1, Start: 1200, Dur: 10})
	tr.Record(0, Span{}) // zero trace ID: dropped

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot = %d spans, want 3", len(spans))
	}
	byKind := map[Kind]Span{}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %+v lost its trace ID", s)
		}
		byKind[s.Kind] = s
	}
	if byKind[KindNetRead].Worker != 0 || byKind[KindInvoke].Worker != 1 {
		t.Fatalf("worker attribution: %+v", byKind)
	}
	if byKind[KindSend].Worker != -1 {
		t.Fatalf("out-of-range worker should hit system buffer: %+v", byKind[KindSend])
	}
	if byKind[KindInvoke].Parent != id {
		t.Fatalf("parent lost: %+v", byKind[KindInvoke])
	}
	if byKind[KindNetRead].Ref != 7 || byKind[KindNetRead].Start != 1000 || byKind[KindNetRead].Dur != 50 {
		t.Fatalf("fields lost: %+v", byKind[KindNetRead])
	}
}

func TestBufferWraps(t *testing.T) {
	tr := New(1, minBufferSpans, 0)
	root := tr.NewRoot()
	for i := 0; i < minBufferSpans*3; i++ {
		tr.Record(0, Span{TraceID: root.TraceID, ID: tr.NextSpan(), Kind: KindSend, Start: int64(i)})
	}
	spans := tr.Snapshot()
	if len(spans) != minBufferSpans {
		t.Fatalf("wrapped ring holds %d, want %d", len(spans), minBufferSpans)
	}
}

func TestBeginEnd(t *testing.T) {
	tr := New(1, 64, 0)
	sc := &Scope{}
	if !tr.Begin(sc).IsZero() {
		t.Fatal("untraced scope armed a span")
	}
	sc.Adopt(Ctx{TraceID: 11, Span: 4})
	start := tr.Begin(sc)
	if start.IsZero() {
		t.Fatal("traced scope did not arm")
	}
	tr.End(0, sc, KindPOSGet, 3, start)
	tr.End(0, sc, KindPOSGet, 3, time.Time{}) // zero start: no-op
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("snapshot = %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.TraceID != 11 || s.Parent != 4 || s.Kind != KindPOSGet || s.Ref != 3 || s.Dur < 0 {
		t.Fatalf("span = %+v", s)
	}
}

func TestNames(t *testing.T) {
	tr := New(1, 64, 0)
	tr.NameChannel(3, "req-0")
	tr.NameActor(2, "kvstore-0")
	if tr.RefName(KindSend, 3) != "req-0" || tr.RefName(KindDwell, 3) != "req-0" {
		t.Fatal("channel name")
	}
	if tr.RefName(KindInvoke, 2) != "kvstore-0" {
		t.Fatal("actor name")
	}
	if tr.RefName(KindNetRead, 3) != "" {
		t.Fatal("socket refs have no name table")
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	tr := New(4, 256, 0)
	root := tr.NewRoot()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Record(w, Span{TraceID: root.TraceID, ID: tr.NextSpan(), Kind: KindSend, Start: int64(i), Dur: 1})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, s := range tr.Snapshot() {
			if s.TraceID != root.TraceID {
				t.Errorf("foreign trace ID %d in snapshot", s.TraceID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := New(2, 64, 0)
	tr.NameChannel(1, "link")
	root := tr.NewRoot()
	parent := tr.NextSpan()
	tr.Record(0, Span{TraceID: root.TraceID, ID: parent, Kind: KindNetRead, Ref: 9, Start: 1700000000_123456789, Dur: 1500})
	tr.Record(1, Span{TraceID: root.TraceID, ID: tr.NextSpan(), Parent: parent, Kind: KindSend, Ref: 1, Start: 1700000000_123458789, Dur: -5})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
			Args struct {
				Trace  uint64 `json:"trace"`
				Span   uint32 `json:"span"`
				Parent uint32 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Name != "net-read" {
		t.Fatalf("event[0] = %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "send link" || doc.TraceEvents[1].Args.Parent != parent {
		t.Fatalf("event[1] = %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[1].Dur != 0 { // negative duration clamps
		t.Fatalf("negative dur leaked: %+v", doc.TraceEvents[1])
	}
}

// SampleEvery returns the effective sampling period (0 for nil).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleMask) + 1
}
