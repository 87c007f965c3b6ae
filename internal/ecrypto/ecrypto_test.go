package ecrypto

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func testKey(b byte) [KeySize]byte {
	var k [KeySize]byte
	for i := range k {
		k[i] = b
	}
	return k
}

func TestCipherRoundTrip(t *testing.T) {
	c, err := NewCipher(testKey(1), 7)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	plaintext := []byte("the quick brown fox")
	aad := []byte("channel-3")
	blob := c.Seal(nil, plaintext, aad)
	if len(blob) != SealedLen(len(plaintext)) {
		t.Fatalf("blob len = %d, want %d", len(blob), SealedLen(len(plaintext)))
	}
	if bytes.Contains(blob, plaintext) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := c.Open(nil, blob, aad)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("Open = %q, want %q", got, plaintext)
	}
}

func TestCipherCrossDirection(t *testing.T) {
	// Two endpoints share a key but use distinct direction tags; each
	// must decrypt the other's output.
	key := testKey(2)
	a, _ := NewCipher(key, 0)
	b, _ := NewCipher(key, 1)
	blob := a.Seal(nil, []byte("ping"), nil)
	got, err := b.Open(nil, blob, nil)
	if err != nil || string(got) != "ping" {
		t.Fatalf("cross-direction Open = %q, %v", got, err)
	}
}

func TestCipherNoncesUnique(t *testing.T) {
	c, _ := NewCipher(testKey(3), 0)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		blob := c.Seal(nil, []byte("x"), nil)
		nonce := string(blob[:12])
		if seen[nonce] {
			t.Fatal("nonce reused")
		}
		seen[nonce] = true
	}
}

func TestCipherTamperDetection(t *testing.T) {
	c, _ := NewCipher(testKey(4), 0)
	blob := c.Seal(nil, []byte("payload"), nil)
	blob[len(blob)-1] ^= 1
	if _, err := c.Open(nil, blob, nil); err != ErrAuthFailed {
		t.Fatalf("tampered Open err = %v, want ErrAuthFailed", err)
	}
}

func TestCipherWrongAAD(t *testing.T) {
	c, _ := NewCipher(testKey(5), 0)
	blob := c.Seal(nil, []byte("payload"), []byte("a"))
	if _, err := c.Open(nil, blob, []byte("b")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
}

func TestCipherWrongKey(t *testing.T) {
	c1, _ := NewCipher(testKey(6), 0)
	c2, _ := NewCipher(testKey(7), 0)
	blob := c1.Seal(nil, []byte("payload"), nil)
	if _, err := c2.Open(nil, blob, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestCipherShortBlob(t *testing.T) {
	c, _ := NewCipher(testKey(8), 0)
	if _, err := c.Open(nil, make([]byte, Overhead-1), nil); err != ErrCiphertextTooShort {
		t.Fatalf("short blob err = %v, want ErrCiphertextTooShort", err)
	}
}

func TestCipherConcurrentSeal(t *testing.T) {
	c, _ := NewCipher(testKey(9), 0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	nonces := map[string]bool{}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				blob := c.Seal(nil, []byte("m"), nil)
				mu.Lock()
				if nonces[string(blob[:12])] {
					t.Error("nonce collision under concurrency")
					mu.Unlock()
					return
				}
				nonces[string(blob[:12])] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestCipherQuick(t *testing.T) {
	c, _ := NewCipher(testKey(10), 0)
	f := func(plaintext, aad []byte) bool {
		blob := c.Seal(nil, plaintext, aad)
		got, err := c.Open(nil, blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSealIntoDst(t *testing.T) {
	c, _ := NewCipher(testKey(11), 0)
	prefix := []byte("hdr:")
	blob := c.Seal(append([]byte{}, prefix...), []byte("body"), nil)
	if !bytes.HasPrefix(blob, prefix) {
		t.Fatal("Seal did not append to dst")
	}
	got, err := c.Open(nil, blob[len(prefix):], nil)
	if err != nil || string(got) != "body" {
		t.Fatalf("Open after prefix strip = %q, %v", got, err)
	}
}

// TestSealInPlace pins the contract the channel send path relies on: a
// plaintext staged NonceSize bytes into a buffer is sealed over itself,
// inside that buffer, without allocating.
func TestSealInPlace(t *testing.T) {
	c, _ := NewCipher(testKey(12), 0)
	msg := []byte("sealed where it lies")
	buf := make([]byte, SealedLen(len(msg)))
	var blob []byte
	allocs := testing.AllocsPerRun(10, func() {
		copy(buf[NonceSize:], msg)
		blob = c.Seal(buf[:0], buf[NonceSize:NonceSize+len(msg)], nil)
	})
	if allocs != 0 {
		t.Fatalf("in-place Seal allocates %v times per call", allocs)
	}
	if &blob[0] != &buf[0] || len(blob) != len(buf) {
		t.Fatal("Seal left the buffer it was given")
	}
	got, err := c.Open(nil, blob, nil)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Open after in-place Seal = %q, %v", got, err)
	}
}

func TestDeriveKeyDistinct(t *testing.T) {
	parent := testKey(12)
	a := DeriveKey(parent, "a")
	b := DeriveKey(parent, "b")
	if a == b {
		t.Fatal("different labels derived identical keys")
	}
	if a == parent || b == parent {
		t.Fatal("derived key equals parent")
	}
	if a != DeriveKey(parent, "a") {
		t.Fatal("derivation is not deterministic")
	}
}

func TestDeterministicRoundTrip(t *testing.T) {
	d, err := NewDeterministic(testKey(13))
	if err != nil {
		t.Fatalf("NewDeterministic: %v", err)
	}
	blob1 := d.Seal([]byte("user:alice"))
	blob2 := d.Seal([]byte("user:alice"))
	if !bytes.Equal(blob1, blob2) {
		t.Fatal("deterministic sealer produced differing ciphertexts")
	}
	blob3 := d.Seal([]byte("user:bob"))
	if bytes.Equal(blob1, blob3) {
		t.Fatal("different plaintexts sealed identically")
	}
	got, err := d.Open(blob1)
	if err != nil || string(got) != "user:alice" {
		t.Fatalf("Open = %q, %v", got, err)
	}
	// AppendSeal keeps dst's bytes and appends the same blob, also for
	// plaintexts shorter than the MAC it sums in place.
	for _, p := range []string{"user:alice", "", "ab"} {
		out := d.AppendSeal([]byte("prefix"), []byte(p))
		if want := append([]byte("prefix"), d.Seal([]byte(p))...); !bytes.Equal(out, want) {
			t.Fatalf("AppendSeal(%q) = %x, want %x", p, out, want)
		}
	}
}

func TestDeterministicTamper(t *testing.T) {
	d, _ := NewDeterministic(testKey(14))
	blob := d.Seal([]byte("value"))
	blob[0] ^= 1
	if _, err := d.Open(blob); err == nil {
		t.Fatal("tampered deterministic blob accepted")
	}
	if _, err := d.Open(make([]byte, 3)); err != ErrCiphertextTooShort {
		t.Fatal("short deterministic blob not rejected")
	}
}

func TestDeterministicQuick(t *testing.T) {
	d, _ := NewDeterministic(testKey(15))
	f := func(plaintext []byte) bool {
		blob := d.Seal(plaintext)
		if !bytes.Equal(blob, d.Seal(plaintext)) {
			return false
		}
		got, err := d.Open(blob)
		return err == nil && bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Open decrypts a blob produced by Seal.
func (d *Deterministic) Open(blob []byte) ([]byte, error) {
	if len(blob) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	out, err := d.aead.Open(nil, blob[:NonceSize], blob[NonceSize:], nil)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return out, nil
}
