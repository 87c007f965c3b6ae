package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

// The two cursors of this package — the replay ring's opaque index and
// the scanner's read offset — tested where they wrap.

// TestReplayRingAcrossOpaqueWrap runs Admit/Store/replay across the
// session's opaque wrap, 2^32−1 → 1 (zero is never issued): the ring
// indexes by opaque&mask, so the wrap must neither lose a live slot nor
// let a stale one answer.
func TestReplayRingAcrossOpaqueWrap(t *testing.T) {
	r := NewReplay(8)
	var issued []uint32
	op := uint32(0xFFFFFFFB)
	for i := 0; i < 7; i++ {
		if _, v := r.Admit(op); v != VerdictNew {
			t.Fatalf("admit %#x = %v", op, v)
		}
		r.Store(op, []byte{byte(op)})
		issued = append(issued, op)
		if op++; op == 0 { // the session's skip
			op = 1
		}
	}
	if r.MaxOpaque() != 2 {
		t.Fatalf("max = %#x, want 2", r.MaxOpaque())
	}
	// Every opaque of the run, on both sides of the wrap, still replays
	// its own bytes: 2 − 0xFFFFFFFB is 7 (int32 distance), inside 8.
	for _, op := range issued {
		cached, v := r.Admit(op)
		if v != VerdictReplay || len(cached) != 1 || cached[0] != byte(op) {
			t.Fatalf("resend %#x = %v %x", op, v, cached)
		}
	}
	// Eight more opaques push the pre-wrap ones out of the window: they
	// reject, although nothing but their distance changed.
	for i := 0; i < 8; i++ {
		r.Admit(op)
		r.Store(op, []byte{byte(op)})
		op++
	}
	for _, old := range issued[:4] {
		if cached, v := r.Admit(old); v != VerdictReject {
			t.Fatalf("stale %#x = %v %x, want reject", old, v, cached)
		}
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d, want the 8 slots", r.Len())
	}
}

// TestReplayNonPowerOfTwoCapacity: a requested capacity is rounded up to
// a power of two, and the rounded size is the window — everything the
// ring can hold replays, and the first opaque it cannot hold rejects.
func TestReplayNonPowerOfTwoCapacity(t *testing.T) {
	r := NewReplay(5)
	const size = 8
	for op := uint32(1); op <= 100; op++ {
		r.Admit(op)
		r.Store(op, []byte{byte(op)})
	}
	if r.Len() != size {
		t.Fatalf("len = %d, want %d", r.Len(), size)
	}
	for op := uint32(100 - size + 1); op <= 100; op++ {
		if cached, v := r.Admit(op); v != VerdictReplay || cached[0] != byte(op) {
			t.Fatalf("in-window %d = %v %x", op, v, cached)
		}
	}
	if _, v := r.Admit(100 - size); v != VerdictReject {
		t.Fatalf("first out-of-window opaque = %v", v)
	}
}

// TestReplayLateOriginalKeepsNewerSlots: the original of an older opaque
// that was lost and executes late takes the slot of an opaque at least
// the window older — never one a newer, still-live response sits in.
func TestReplayLateOriginalKeepsNewerSlots(t *testing.T) {
	const size = 4
	r := NewReplay(size)
	for op := uint32(1); op <= 8; op++ {
		if _, v := r.Admit(op); v != VerdictNew {
			t.Fatalf("admit %d = %v", op, v)
		}
		if op == 6 {
			continue // the original is lost before executing
		}
		r.Store(op, []byte{byte(op)})
	}
	// 6's resend arrives last: inside the window, never stored, so it
	// executes and stores into slot 6&3, which held 2.
	if _, v := r.Admit(6); v != VerdictNew {
		t.Fatalf("late original = %v", v)
	}
	r.Store(6, []byte{6})
	for op := uint32(5); op <= 8; op++ {
		if cached, v := r.Admit(op); v != VerdictReplay || cached[0] != byte(op) {
			t.Fatalf("live %d after the late store = %v %x", op, v, cached)
		}
	}
	// A store for an opaque outside the window is refused outright.
	r.Store(3, []byte{3})
	if cached, v := r.Admit(7); v != VerdictReplay || cached[0] != 7 {
		t.Fatalf("slot 7 after an out-of-window store = %v %x", v, cached)
	}
}

// TestScannerRandomSplits streams 10 000 frames, a few of them near
// MaxPayload, through one Scanner at random split points: every frame
// must equal ParseFrame's one-shot decode of its encoding, the buffer
// must stay within twice the largest partial frame, and a drained
// scanner keeps no array over maxReuse.
func TestScannerRandomSplits(t *testing.T) {
	const frames = 10000
	rng := rand.New(rand.NewSource(1))
	var sc Scanner
	var want [][]byte // encodings fed but not yet scanned
	stream := []byte{}
	next := 0
	for i := 0; i < frames; i++ {
		n := rng.Intn(300)
		switch {
		case i%2000 == 1999:
			n = MaxPayload - rng.Intn(64)
		case i%100 == 99:
			n = rng.Intn(70 << 10)
		}
		payload := make([]byte, n)
		rng.Read(payload)
		enc, err := AppendFrame(nil, Frame{Type: TRequest, Flags: byte(i), Opaque: uint32(i), Credit: uint32(n), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, enc)
		stream = append(stream, enc...)
		// Feed everything buffered so far in random-size chunks, then
		// drain; the stream keeps only the bytes not fed yet.
		for len(stream) > 0 && (rng.Intn(4) == 0 || i == frames-1) {
			k := 1 + rng.Intn(min(len(stream), 8192))
			sc.Feed(stream[:k])
			stream = stream[k:]
			if c := cap(sc.buf); c > 2*scannerLimit {
				t.Fatalf("frame %d: scanner holds %d bytes of capacity", i, c)
			}
			for {
				f, raw, ok, err := sc.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", next, err)
				}
				if !ok {
					break
				}
				one, n, err := ParseFrame(want[next])
				if err != nil || n != len(want[next]) {
					t.Fatalf("frame %d: one-shot parse %v", next, err)
				}
				if f.Type != one.Type || f.Flags != one.Flags || f.Opaque != one.Opaque ||
					f.Credit != one.Credit || !bytes.Equal(f.Payload, one.Payload) || !bytes.Equal(raw, want[next]) {
					t.Fatalf("frame %d: scanner and one-shot parse disagree", next)
				}
				want[next] = nil
				next++
			}
			if sc.Buffered() == 0 && cap(sc.buf) > maxReuse {
				t.Fatalf("drained scanner kept a %d-byte array", cap(sc.buf))
			}
		}
	}
	if next != frames || sc.Buffered() != 0 {
		t.Fatalf("scanned %d of %d frames, %d bytes left", next, frames, sc.Buffered())
	}
}
