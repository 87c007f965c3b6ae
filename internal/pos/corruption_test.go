package pos

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Failure-injection tests: the store must reject corrupted files rather
// than misbehave.

func TestReopenRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[offVersion:], 99)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path, SizeBytes: 64 * 1024}); !errors.Is(err, ErrBadStore) {
		t.Fatalf("bad version err = %v, want ErrBadStore", err)
	}
}

func TestReopenRejectsSizeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	// Re-open with a different size: the stored superblock disagrees.
	if _, err := Open(Options{Path: path, SizeBytes: 128 * 1024}); !errors.Is(err, ErrBadStore) {
		t.Fatalf("size mismatch err = %v, want ErrBadStore", err)
	}
}

func TestReopenRejectsCorruptGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	raw, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(raw[offRegionSize:], 1) // < minRegionSize
	_ = os.WriteFile(path, raw, 0o644)
	if _, err := Open(Options{Path: path, SizeBytes: 64 * 1024}); !errors.Is(err, ErrBadStore) {
		t.Fatalf("corrupt geometry err = %v, want ErrBadStore", err)
	}
}

func TestEncryptedStoreDetectsValueTampering(t *testing.T) {
	key := testEncKey()
	s := openTestStore(t, Options{EncryptionKey: &key})
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte somewhere in the record area.
	flipped := false
	for off := s.regionsOff; off < len(s.mem) && !flipped; off++ {
		if s.mem[off] != 0 {
			s.mem[off] ^= 0xFF
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no record bytes found to corrupt")
	}
	// Either the key no longer matches (not found) or decryption fails;
	// silently returning wrong data is the only failure.
	val, ok, err := s.Get([]byte("k"))
	if ok && err == nil && string(val) != "v" {
		t.Fatalf("tampered store returned wrong value %q without error", val)
	}
}

func testEncKey() [32]byte {
	var k [32]byte
	for i := range k {
		k[i] = byte(0xA0 + i)
	}
	return k
}
