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

// corruptAndReopen creates a store at a fresh path, lets prepare set
// keys, closes it, applies mutate to the file bytes and returns the
// reopen error. geometry is the store as prepare left it.
func corruptAndReopen(t *testing.T, prepare func(s *Store), mutate func(raw []byte, geometry *Store)) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	_ = s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(raw, s)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err == nil {
		_ = re.Close()
	}
	return err
}

// TestReopenRejectsCorruptFreshMark: a fresh mark off the region grid
// would hand out a region inside the header or past the file; reopen
// rejects it. A mark at the grid's end (every region used) is valid.
func TestReopenRejectsCorruptFreshMark(t *testing.T) {
	setTwo := func(s *Store) {
		_ = s.Set([]byte("a"), []byte("1"))
		_ = s.Set([]byte("b"), []byte("2"))
	}
	for name, mark := range map[string]func(s *Store) uint64{
		"unaligned":    func(s *Store) uint64 { return s.fresh + 1 },
		"in header":    func(s *Store) uint64 { return uint64(s.regionsOff) - uint64(s.regionSize) },
		"zero":         func(s *Store) uint64 { return 0 },
		"past the end": func(s *Store) uint64 { return s.regionsEnd + uint64(s.regionSize) },
		"huge":         func(s *Store) uint64 { return 1 << 62 },
	} {
		err := corruptAndReopen(t, setTwo, func(raw []byte, s *Store) {
			binary.LittleEndian.PutUint64(raw[offFresh:], mark(s))
		})
		if !errors.Is(err, ErrBadStore) {
			t.Errorf("%s fresh mark: reopen err = %v, want ErrBadStore", name, err)
		}
	}
	err := corruptAndReopen(t, setTwo, func(raw []byte, s *Store) {
		binary.LittleEndian.PutUint64(raw[offFresh:], s.regionsEnd)
	})
	if err != nil {
		t.Errorf("fresh mark at the end of the grid: reopen err = %v", err)
	}
}

// TestReopenRejectsCorruptFreeList: the free list is counted once at
// load; a link off the grid, past the fresh mark or in a cycle rejects
// the store instead of looping or handing out a bad region later.
func TestReopenRejectsCorruptFreeList(t *testing.T) {
	// Two versions of one key, cleaned: one region on the free list.
	oneFree := func(s *Store) {
		_ = s.Set([]byte("a"), []byte("1"))
		_ = s.Set([]byte("a"), []byte("2"))
		_ = s.Set([]byte("b"), []byte("3"))
		if n, _ := s.Clean(); n != 1 {
			t.Fatalf("Clean reclaimed %d, want 1", n)
		}
	}
	for name, mutate := range map[string]func(raw []byte, s *Store){
		"head past the mark": func(raw []byte, s *Store) {
			binary.LittleEndian.PutUint64(raw[offFreeHead:], s.fresh)
		},
		"head unaligned": func(raw []byte, s *Store) {
			binary.LittleEndian.PutUint64(raw[offFreeHead:], uint64(s.regionsOff)+8)
		},
		"cycle": func(raw []byte, s *Store) {
			head := binary.LittleEndian.Uint64(raw[offFreeHead:])
			binary.LittleEndian.PutUint64(raw[head:], head)
		},
	} {
		if err := corruptAndReopen(t, oneFree, mutate); !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: reopen err = %v, want ErrBadStore", name, err)
		}
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
