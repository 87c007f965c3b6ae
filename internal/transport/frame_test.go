package transport

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: THello, Flags: Version1, Opaque: FeatureKV, Credit: DefaultWindow},
		{Type: THelloAck, Flags: Version1, Opaque: FeatureKV | 1<<7, Credit: 1},
		{Type: TRequest, Opaque: 42, Payload: []byte("hello")},
		{Type: TResponse, Opaque: 0xFFFFFFFF, Credit: 21, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: TGoAway, Payload: []byte("bye")},
		{Type: TRequest, Opaque: 7, Payload: []byte("<message/>")},
		{Type: TCredit, Credit: 1 << 20},
	}
	for _, want := range cases {
		buf, err := AppendFrame(nil, want)
		if err != nil {
			t.Fatalf("%s: AppendFrame: %v", want.Type, err)
		}
		if len(buf) != HeaderSize+len(want.Payload) {
			t.Fatalf("%s: encoded %d bytes", want.Type, len(buf))
		}
		got, n, err := ParseFrame(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%s: ParseFrame n=%d err=%v", want.Type, n, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Opaque != want.Opaque ||
			got.Credit != want.Credit || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: roundtrip = %+v", want.Type, got)
		}
	}
}

func TestFrameRejects(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Type: 0x01}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("legacy-opcode type encoded: %v", err)
	}
	if _, err := AppendFrame(nil, Frame{Type: TRequest, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized payload encoded: %v", err)
	}
	good, _ := AppendFrame(nil, Frame{Type: TRequest, Opaque: 1, Payload: []byte("x")})

	if _, _, err := ParseFrame(good[:HeaderSize-1]); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short header err = %v", err)
	}
	if _, _, err := ParseFrame(good[:len(good)-1]); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short payload err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0x3C // '<' — XML, not a frame
	if _, _, err := ParseFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("xml byte err = %v", err)
	}
	bad = append(bad[:0], good...)
	bad[2] = 1 // reserved must be zero
	if _, _, err := ParseFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("reserved byte err = %v", err)
	}
}

func TestHelloLegacyRejectShape(t *testing.T) {
	// The downgrade path depends on a legacy KV server reading HELLO as
	// one complete 9-byte request with an unknown opcode: byte 0 is the
	// opcode (0xE1, outside 1..3), bytes 5..8 — keyLen and valLen — must
	// be zero so the legacy parser sees a complete frame and rejects
	// deterministically instead of waiting for payload bytes.
	hello, err := Hello(FeatureKV|1<<7, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendFrame(nil, hello)
	if err != nil {
		t.Fatal(err)
	}
	if Type(1).Valid() || Type('<').Valid() || Type(0xE7).Valid() || !Type(buf[0]).Valid() {
		t.Fatal("first-byte frame type check misclassifies")
	}
	for i := 5; i < 9; i++ {
		if buf[i] != 0 {
			t.Fatalf("hello byte %d = %#x; legacy parser would wait for payload", i, buf[i])
		}
	}
	if _, err := Hello(256, 0); err == nil {
		t.Fatal("features >= 256 would break the legacy-reject property")
	}
}

func TestScannerReassembly(t *testing.T) {
	var stream []byte
	var want []Frame
	for i := 0; i < 25; i++ {
		f := Frame{Type: TRequest, Opaque: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, i*11)}
		buf, err := AppendFrame(stream, f)
		if err != nil {
			t.Fatal(err)
		}
		stream = buf
		want = append(want, f)
	}
	for _, chunk := range []int{1, 3, 7, len(stream)} {
		var sc Scanner
		var got []Frame
		for i := 0; i < len(stream); i += chunk {
			end := i + chunk
			if end > len(stream) {
				end = len(stream)
			}
			sc.Feed(stream[i:end])
			for {
				f, raw, ok, err := sc.Next()
				if err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if !ok {
					break
				}
				if len(raw) != HeaderSize+len(f.Payload) {
					t.Fatalf("chunk=%d: raw %d bytes for payload %d", chunk, len(raw), len(f.Payload))
				}
				got = append(got, Frame{Type: f.Type, Opaque: f.Opaque, Payload: append([]byte(nil), f.Payload...)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: reassembled %d of %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i].Opaque != want[i].Opaque || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("chunk=%d frame %d mismatch", chunk, i)
			}
		}
		if sc.Buffered() != 0 {
			t.Fatalf("chunk=%d: %d bytes left over", chunk, sc.Buffered())
		}
	}
	var bad Scanner
	bad.Feed([]byte{0x99})
	if _, _, _, err := bad.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad first byte err = %v", err)
	}
}

func TestWindowAccounting(t *testing.T) {
	w := NewWindow(100)
	if err := w.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if w.TryReserve(50) {
		t.Fatal("overcommit accepted")
	}
	if !w.TryReserve(40) {
		t.Fatal("exact fit rejected")
	}
	if w.InFlight() != 100 || w.MaxInFlight() != 100 {
		t.Fatalf("inflight=%d max=%d", w.InFlight(), w.MaxInFlight())
	}
	if err := w.Reserve(101); err == nil {
		t.Fatal("frame larger than the whole window accepted")
	}

	// A blocked Reserve must wake on Release.
	done := make(chan error, 1)
	go func() { done <- w.Reserve(30) }()
	w.Release(40)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Fail unblocks waiters with the poison error.
	go func() { done <- w.Reserve(100) }()
	w.Fail(nil)
	if err := <-done; !errors.Is(err, ErrWindowClosed) {
		t.Fatalf("post-fail reserve err = %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	w.Release(1000)
}

func TestReplayVerdicts(t *testing.T) {
	r := NewReplay(4)
	if _, v := r.Admit(10); v != VerdictNew {
		t.Fatalf("first admit = %v", v)
	}
	r.Store(10, []byte("resp-10"))
	cached, v := r.Admit(10)
	if v != VerdictReplay || string(cached) != "resp-10" {
		t.Fatalf("resend = %v %q", v, cached)
	}
	// Older-but-inside-window, never executed: the original was lost, so
	// the resend must execute.
	if _, v := r.Admit(9); v != VerdictNew {
		t.Fatalf("lost-original resend = %v", v)
	}
	// Outside the window: reject, never execute, never replay.
	if _, v := r.Admit(3); v != VerdictReject {
		t.Fatalf("ancient opaque = %v", v)
	}
	// Eviction: storing past capacity drops the oldest; its opaque then
	// rejects rather than replaying a stale value.
	for op := uint32(11); op <= 14; op++ {
		if _, v := r.Admit(op); v != VerdictNew {
			t.Fatalf("admit %d = %v", op, v)
		}
		r.Store(op, []byte{byte(op)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d", r.Len())
	}
	if _, v := r.Admit(10); v != VerdictReject {
		t.Fatalf("evicted opaque = %v (stale replay risk)", v)
	}
	if r.MaxOpaque() != 14 {
		t.Fatalf("max = %d", r.MaxOpaque())
	}
}

func TestReplayWraparound(t *testing.T) {
	// Opaque comparison is modular: 2^32-1 → 0 must read as "newer".
	r := NewReplay(8)
	start := uint32(0xFFFFFFFD)
	for i := uint32(0); i < 6; i++ {
		op := start + i // wraps past zero
		if _, v := r.Admit(op); v != VerdictNew {
			t.Fatalf("admit %#x = %v", op, v)
		}
		r.Store(op, []byte{byte(i)})
	}
	if cached, v := r.Admit(start + 1); v != VerdictReplay || cached[0] != 1 {
		t.Fatalf("pre-wrap resend = %v", v)
	}
	if _, v := r.Admit(start - 20); v != VerdictReject {
		t.Fatalf("ancient pre-wrap opaque = %v", v)
	}
}

// TryReserve is Reserve without blocking; it reports whether the bytes
// were claimed.
func (w *Window) TryReserve(n int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || n > w.limit || w.inFlight+n > w.limit {
		return false
	}
	w.inFlight += n
	if w.inFlight > w.maxInFlight {
		w.maxInFlight = w.inFlight
	}
	return true
}

// InFlight returns the currently reserved bytes.
func (w *Window) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inFlight
}

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictNew:
		return "new"
	case VerdictReplay:
		return "replay"
	case VerdictReject:
		return "reject"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Len returns the number of cached responses.
func (r *Replay) Len() int { return r.n }

// MaxOpaque returns the highest admitted opaque (zero before any).
func (r *Replay) MaxOpaque() uint32 { return r.max }
