package core

import (
	"errors"
	"testing"
)

// TestReplayRejected: the hostile runtime re-delivers a captured node;
// the encrypted endpoint must reject the second copy.
func TestReplayRejected(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if err := a.Send([]byte("one-shot message")); err != nil {
		t.Fatal(err)
	}

	// Capture the ciphertext on the wire and craft a duplicate node.
	node, ok := b.in.Dequeue()
	if !ok {
		t.Fatal("no node in flight")
	}
	dup := b.pool.Get()
	if dup == nil {
		t.Fatal("pool empty")
	}
	if err := dup.SetLen(copy(dup.Buf(), node.Payload())); err != nil {
		t.Fatal(err)
	}
	b.in.Enqueue(node)
	b.in.Enqueue(dup)

	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf)
	if !ok || err != nil {
		t.Fatalf("first Recv: n=%d ok=%v err=%v", n, ok, err)
	}
	if string(buf[:n]) != "one-shot message" {
		t.Fatalf("first Recv = %q", buf[:n])
	}
	_, ok, err = b.Recv(buf)
	if !ok {
		t.Fatal("replayed message vanished")
	}
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

// TestReorderRejected: delivering message 2 before message 1 must fail
// the late message.
func TestReorderRejected(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if err := a.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("second")); err != nil {
		t.Fatal(err)
	}
	// The hostile runtime swaps the two nodes.
	n1, _ := b.in.Dequeue()
	n2, _ := b.in.Dequeue()
	b.in.Enqueue(n2)
	b.in.Enqueue(n1)

	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf)
	if !ok || err != nil || string(buf[:n]) != "second" {
		t.Fatalf("swapped Recv = %q ok=%v err=%v", buf[:n], ok, err)
	}
	_, ok, err = b.Recv(buf)
	if !ok || !errors.Is(err, ErrReplay) {
		t.Fatalf("reordered Recv err = %v ok=%v, want ErrReplay", err, ok)
	}
}

// TestReplayRejectedRecvNode: a frame replayed after its original was
// received and its node recycled must be rejected, and the received
// node carrying the replay must still go back to the pool.
func TestReplayRejectedRecvNode(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if err := a.Send([]byte("zc")); err != nil {
		t.Fatal(err)
	}
	node, _ := b.in.Dequeue()
	var raw []byte
	raw = append(raw, node.Payload()...)
	b.in.Enqueue(node)

	buf := make([]byte, 128)
	n, ok, err := b.Recv(buf)
	if !ok || err != nil || string(buf[:n]) != "zc" {
		t.Fatalf("first Recv = %q ok=%v err=%v", buf[:n], ok, err)
	}

	dup := b.pool.Get()
	_ = dup.SetLen(copy(dup.Buf(), raw))
	b.in.Enqueue(dup)
	n, ok, err = b.Recv(buf)
	if !ok || !errors.Is(err, ErrReplay) || n != 0 {
		t.Fatalf("replayed Recv n=%d ok=%v err=%v", n, ok, err)
	}
	// All nodes back in the pool.
	if free := b.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d", free)
	}
}

// TestPlaintextChannelNoSeqCheck: plaintext channels carry no counters,
// so duplicates pass (the paper's plaintext mboxes make no integrity
// claims).
func TestPlaintextChannelNoSeqCheck(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	if err := a.Send([]byte("dup me")); err != nil {
		t.Fatal(err)
	}
	node, _ := b.in.Dequeue()
	dup := b.pool.Get()
	_ = dup.SetLen(copy(dup.Buf(), node.Payload()))
	b.in.Enqueue(node)
	b.in.Enqueue(dup)
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if _, ok, err := b.Recv(buf); !ok || err != nil {
			t.Fatalf("plaintext Recv %d: ok=%v err=%v", i, ok, err)
		}
	}
}
