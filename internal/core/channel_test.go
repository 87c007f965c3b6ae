package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/eactors/eactors-go/internal/ecrypto"
)

// buildPair constructs a runtime with two connected actors and returns
// their endpoints without starting workers, for direct channel testing.
func buildPair(t testing.TB, encrypted bool, capacity, poolNodes, payload int) (a, b *Endpoint, rt *Runtime) {
	t.Helper()
	cfg := Config{
		Workers:     []WorkerSpec{{}},
		PoolNodes:   poolNodes,
		NodePayload: payload,
		Actors: []Spec{
			{Name: "a", Worker: 0, Body: func(*Self) {}},
			{Name: "b", Worker: 0, Body: func(*Self) {}},
		},
		Channels: []ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: capacity}},
	}
	if encrypted {
		cfg.Enclaves = []EnclaveSpec{{Name: "ea"}, {Name: "eb"}}
		cfg.Actors[0].Enclave = "ea"
		cfg.Actors[1].Enclave = "eb"
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(rt.Stop)
	return rt.actors["a"].endpoints["link"], rt.actors["b"].endpoints["link"], rt
}

func TestEndpointSendRecvPlaintext(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf := make([]byte, 64)
	n, ok, err := b.Recv(buf)
	if err != nil || !ok {
		t.Fatalf("Recv: ok=%v err=%v", ok, err)
	}
	if string(buf[:n]) != "hello" {
		t.Fatalf("Recv = %q", buf[:n])
	}
	// Reply direction.
	if err := b.Send([]byte("world")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	n, ok, err = a.Recv(buf)
	if err != nil || !ok || string(buf[:n]) != "world" {
		t.Fatalf("reply Recv = %q ok=%v err=%v", buf[:n], ok, err)
	}
}

func TestEndpointRecvEmpty(t *testing.T) {
	a, _, _ := buildPair(t, false, 8, 16, 64)
	if _, ok, err := a.Recv(make([]byte, 8)); ok || err != nil {
		t.Fatalf("Recv on empty = ok=%v err=%v", ok, err)
	}
	bufs, lens := BatchBufs(4, 8)
	if n, err := a.RecvBatch(bufs, lens); n != 0 || err != nil {
		t.Fatalf("RecvBatch on empty = %d err=%v", n, err)
	}
}

func TestEndpointEncryptedTransparency(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 256)
	msg := []byte("secret payload")
	if err := a.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	buf := make([]byte, 256)
	n, ok, err := b.Recv(buf)
	if err != nil || !ok || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("Recv = %q ok=%v err=%v", buf[:n], ok, err)
	}
}

func TestEncryptedWireIsCiphertext(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 256)
	msg := []byte("top secret material")
	if err := a.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Peek at the raw node before the receiver decrypts: it must not
	// contain the plaintext (the malicious-runtime protection).
	node, ok := b.in.Dequeue()
	if !ok {
		t.Fatal("no node on the wire")
	}
	if bytes.Contains(node.Payload(), msg) {
		t.Fatal("plaintext visible on cross-enclave wire")
	}
	if node.Len() != len(msg)+ecrypto.Overhead {
		t.Fatalf("wire length = %d, want %d", node.Len(), len(msg)+ecrypto.Overhead)
	}
	// Put it back and receive normally.
	if !b.in.Enqueue(node) {
		t.Fatal("re-enqueue failed")
	}
	buf := make([]byte, 256)
	n, ok, err := b.Recv(buf)
	if err != nil || !ok || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("Recv after peek = %q ok=%v err=%v", buf[:n], ok, err)
	}
}

func TestEndpointChannelFull(t *testing.T) {
	a, _, _ := buildPair(t, false, 2, 16, 64)
	if err := a.Send([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("3")); !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("third Send err = %v, want ErrMailboxFull", err)
	}
	// The failed send must have returned its node to the pool.
	if free := a.pool.Free(); free != 16-2 {
		t.Fatalf("pool Free = %d, want 14", free)
	}
}

func TestEndpointPoolExhausted(t *testing.T) {
	a, _, _ := buildPair(t, false, 8, 2, 64)
	if err := a.Send([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("3")); !errors.Is(err, ErrPoolEmpty) {
		t.Fatalf("Send err = %v, want ErrPoolEmpty", err)
	}
}

func TestEndpointPayloadTooLarge(t *testing.T) {
	a, _, _ := buildPair(t, false, 8, 16, 32)
	if err := a.Send(make([]byte, 33)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized Send err = %v", err)
	}
	// Encrypted channels lose Overhead bytes of capacity.
	ae, _, _ := buildPair(t, true, 8, 16, 64)
	if got, want := ae.MaxPayload(), 64-ecrypto.Overhead; got != want {
		t.Fatalf("encrypted MaxPayload = %d, want %d", got, want)
	}
	if err := ae.Send(make([]byte, 64-ecrypto.Overhead+1)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("encrypted oversized Send err = %v", err)
	}
}

func TestEndpointShortRecvBuffer(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	if err := a.Send([]byte("a long message")); err != nil {
		t.Fatal(err)
	}
	_, ok, err := b.Recv(make([]byte, 4))
	if !ok || !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short-buffer Recv: ok=%v err=%v", ok, err)
	}
}

func TestChannelQuickRoundTrip(t *testing.T) {
	a, b, _ := buildPair(t, true, 64, 128, 512)
	buf := make([]byte, 512)
	f := func(msg []byte) bool {
		if len(msg) > a.MaxPayload() {
			msg = msg[:a.MaxPayload()]
		}
		if err := a.Send(msg); err != nil {
			return false
		}
		n, ok, err := b.Recv(buf)
		if err != nil || !ok {
			return false
		}
		return bytes.Equal(buf[:n], msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointPending(t *testing.T) {
	a, b, _ := buildPair(t, false, 8, 16, 64)
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.in.Len(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	if got := a.in.Len(); got != 0 {
		t.Fatalf("sender Pending = %d, want 0", got)
	}
}

// TestHopAllocatesNothing pins the paper's no-dynamic-allocation claim
// for the message path (Section 1, item 2): after the first use has
// sized the endpoint's staging buffers, no send/receive pair allocates,
// plain or encrypted.
func TestHopAllocatesNothing(t *testing.T) {
	for _, encrypted := range []bool{false, true} {
		a, b, _ := buildPair(t, encrypted, 16, 32, 256)
		payload := make([]byte, 64)
		buf := make([]byte, 256)
		burst := [][]byte{payload, payload, payload, payload}
		bufs, lens := BatchBufs(len(burst), 256)
		pairs := map[string]func(){
			"Send+Recv": func() {
				if err := a.Send(payload); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := b.Recv(buf); !ok || err != nil {
					t.Fatalf("Recv: ok=%v err=%v", ok, err)
				}
			},
			"SendBatch+RecvBatch": func() {
				if n, err := a.SendBatch(burst); n != len(burst) || err != nil {
					t.Fatalf("SendBatch: n=%d err=%v", n, err)
				}
				if n, err := b.RecvBatch(bufs, lens); n != len(burst) || err != nil {
					t.Fatalf("RecvBatch: n=%d err=%v", n, err)
				}
			},
		}
		for name, pair := range pairs {
			if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
				t.Errorf("encrypted=%v %s: %v allocs per pair, want 0", encrypted, name, allocs)
			}
		}
	}
}
