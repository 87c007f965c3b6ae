package kv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/trace"
)

// chainKinds are the hop edges one fully-traced GET leaves behind on the
// trusted, encrypted deployment: the READER's socket drain roots the
// trace, the request dwells on the read channel, crosses the encrypted
// req channel into the KVSTORE's enclave (seal on the way in, crossing +
// open on the way out), runs the body and the store lookup, and the
// response leaves through the WRITER's socket write.
var chainKinds = []trace.Kind{
	trace.KindNetRead, trace.KindSend, trace.KindDwell, trace.KindSeal,
	trace.KindCrossing, trace.KindOpen, trace.KindInvoke, trace.KindPOSGet,
	trace.KindNetWrite,
}

// chromeDoc mirrors the Chrome trace-event JSON WriteChrome emits, so the
// export is schema-checked by decoding, not by string matching.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		Trace  uint64 `json:"trace"`
		Span   uint32 `json:"span"`
		Parent uint32 `json:"parent"`
		Ref    uint32 `json:"ref"`
	} `json:"args"`
}

// findChain scans a snapshot for a trace that covers every chain kind,
// is fully parent-linked, and spans at least three workers (FRONTEND,
// the networking worker, and an enclaved KVSTORE). Partial chains from
// in-flight requests simply fail the check; callers poll.
func findChain(spans []trace.Span) (uint64, []trace.Span, bool) {
	byTrace := make(map[uint64][]trace.Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	for id, group := range byTrace {
		kinds := make(map[trace.Kind]bool)
		ids := make(map[uint32]bool)
		workers := make(map[int32]bool)
		for _, s := range group {
			kinds[s.Kind] = true
			ids[s.ID] = true
			workers[s.Worker] = true
		}
		complete := true
		for _, k := range chainKinds {
			if !kinds[k] {
				complete = false
				break
			}
		}
		if !complete || len(workers) < 3 {
			continue
		}
		connected := true
		for _, s := range group {
			if s.Parent != 0 && !ids[s.Parent] {
				connected = false
				break
			}
		}
		if connected {
			return id, group, true
		}
	}
	return 0, nil, false
}

// TestTracedGetChain is the end-to-end acceptance check for the tracing
// subsystem: against the trusted, encrypted KV deployment (2 enclaves,
// 4 workers), a sampled GET must yield one connected causal trace
// spanning FRONTEND → KVSTORE (across the enclave boundary) → WRITER,
// and the trace must export as valid Chrome trace-event JSON. Clients
// hammer both shards while snapshot goroutines read the rings, so under
// -race this doubles as the concurrent span-recording test.
func TestTracedGetChain(t *testing.T) {
	var encKey [ecrypto.KeySize]byte
	for i := range encKey {
		encKey[i] = byte(i + 1)
	}
	srv, err := Start(Options{
		Shards:        2,
		Trusted:       true,
		EncryptionKey: &encKey,
		StoreSize:     1 << 20,
		Trace:         true,
		// Root a trace on every READER drain, so the first GET is sampled.
		TraceSampleEvery: 1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Stop()
	if srv.Tracer() == nil {
		t.Fatal("Tracer() = nil with Options.Trace set")
	}

	// One key per shard, so both enclaved KVSTOREs record concurrently.
	keys := make([][]byte, 2)
	for i := 0; keys[0] == nil || keys[1] == nil; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if s := pos.ShardOf(k, 2); keys[s] == nil {
			keys[s] = k
		}
	}

	seed, err := DialPipelined(srv.Addr(), PipelineOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("DialPipelined: %v", err)
	}
	defer seed.Close()
	for _, k := range keys {
		if err := seed.Set(k, append([]byte("val:"), k...)); err != nil {
			t.Fatalf("Set %q: %v", k, err)
		}
	}

	// Background load on both shards plus concurrent snapshot readers:
	// every worker's ring is written while three goroutines read them.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, k := range keys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialPipelined(srv.Addr(), PipelineOptions{Timeout: 2 * time.Second})
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, _, _ = c.Get(k)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = srv.Tracer().Snapshot()
			}
		}()
	}

	var chain []trace.Span
	var traceID uint64
	deadline := time.Now().Add(15 * time.Second)
	for {
		if id, group, ok := findChain(srv.Tracer().Snapshot()); ok {
			traceID, chain = id, group
			break
		}
		if time.Now().After(deadline) {
			close(done)
			wg.Wait()
			t.Fatalf("no connected GET chain within deadline; kinds seen: %v", kindsSeen(srv.Tracer().Snapshot()))
		}
		if _, _, err := seed.Get(keys[0]); err != nil {
			t.Logf("Get: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	// The full export must be valid JSON even while traffic was live.
	var full bytes.Buffer
	if err := srv.Tracer().WriteChrome(&full); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !json.Valid(full.Bytes()) {
		t.Fatalf("WriteChrome produced invalid JSON: %.200s", full.String())
	}

	// Schema check on the found chain exported alone: every span must
	// round-trip into a well-formed complete ("X") event.
	var buf bytes.Buffer
	if err := trace.WriteChromeSpans(&buf, chain, srv.Tracer()); err != nil {
		t.Fatalf("WriteChromeSpans: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export does not decode: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != len(chain) {
		t.Errorf("exported %d events for %d spans", len(doc.TraceEvents), len(chain))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" {
			t.Errorf("malformed event: %+v", ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 || ev.Pid != 1 || ev.Tid < 0 {
			t.Errorf("implausible event fields: %+v", ev)
		}
		if ev.Args.Trace != traceID {
			t.Errorf("event carries trace %d, want %d", ev.Args.Trace, traceID)
		}
	}
}

// kindsSeen summarises a snapshot for failure messages: which span kinds
// each trace accumulated, newest trace IDs first.
func kindsSeen(spans []trace.Span) string {
	byTrace := make(map[uint64]map[trace.Kind]int)
	for _, s := range spans {
		if byTrace[s.TraceID] == nil {
			byTrace[s.TraceID] = make(map[trace.Kind]int)
		}
		byTrace[s.TraceID][s.Kind]++
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	if len(ids) > 8 {
		ids = ids[:8]
	}
	var b bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&b, "\n  trace %d:", id)
		for k, n := range byTrace[id] {
			fmt.Fprintf(&b, " %s×%d", k, n)
		}
	}
	return b.String()
}
