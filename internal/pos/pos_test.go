package pos

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"github.com/eactors/eactors-go/internal/ecrypto"
)

func openTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.SizeBytes == 0 {
		opts.SizeBytes = 256 * 1024
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestSetGet(t *testing.T) {
	s := openTestStore(t, Options{})
	if err := s.Set([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, ok, err := s.Get([]byte("k1"))
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("Get = %q ok=%v err=%v", got, ok, err)
	}
	if _, ok, _ := s.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
}

func TestSetOverwriteReturnsNewest(t *testing.T) {
	s := openTestStore(t, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Set([]byte("counter"), []byte{byte(i)}); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	got, ok, err := s.Get([]byte("counter"))
	if err != nil || !ok || got[0] != 9 {
		t.Fatalf("Get = %v ok=%v err=%v, want [9]", got, ok, err)
	}
}

func TestDelete(t *testing.T) {
	s := openTestStore(t, Options{})
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	found, err := s.Delete([]byte("k"))
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("deleted key still found")
	}
	// Delete of an absent key reports false.
	found, err = s.Delete([]byte("never"))
	if err != nil || found {
		t.Fatalf("Delete(absent) = %v, %v", found, err)
	}
	// Re-set after delete resurrects the key.
	if err := s.Set([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get([]byte("k"))
	if !ok || string(got) != "v2" {
		t.Fatalf("resurrected Get = %q ok=%v", got, ok)
	}
}

func TestStoreFull(t *testing.T) {
	s := openTestStore(t, Options{SizeBytes: headerPages*pageSize + pageSize, RegionSize: 1024})
	if s.regionCount != 4 {
		t.Fatalf("Regions = %d, want 4", s.regionCount)
	}
	for i := 0; i < 4; i++ {
		if err := s.Set([]byte{byte(i)}, []byte("x")); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	if err := s.Set([]byte("overflow"), []byte("x")); !errors.Is(err, ErrFull) {
		t.Fatalf("Set on full store err = %v, want ErrFull", err)
	}
}

func TestCleanReclaimsOutdated(t *testing.T) {
	s := openTestStore(t, Options{SizeBytes: headerPages*pageSize + pageSize, RegionSize: 1024})
	// Fill with 4 versions of the same key.
	for i := 0; i < 4; i++ {
		if err := s.Set([]byte("k"), []byte{byte(i)}); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	if err := s.Set([]byte("k"), []byte{9}); !errors.Is(err, ErrFull) {
		t.Fatalf("expected full store, got %v", err)
	}
	reclaimed, err := s.Clean()
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if reclaimed != 3 {
		t.Fatalf("Clean reclaimed %d, want 3 (keep newest)", reclaimed)
	}
	// The newest version must survive.
	got, ok, _ := s.Get([]byte("k"))
	if !ok || got[0] != 3 {
		t.Fatalf("Get after clean = %v ok=%v", got, ok)
	}
	// And there is room again.
	if err := s.Set([]byte("k2"), []byte("fresh")); err != nil {
		t.Fatalf("Set after clean: %v", err)
	}
}

func TestCleanHonoursGraceCounters(t *testing.T) {
	s := openTestStore(t, Options{})
	reader := s.RegisterReader()
	reader.Tick() // reader is current at epoch 0

	if err := s.Set([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	// The reader has not ticked since the update: nothing may be freed.
	reclaimed, err := s.Clean()
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if reclaimed != 0 {
		t.Fatalf("Clean reclaimed %d before reader ticked, want 0", reclaimed)
	}
	// After the reader passes the update, the old version is fair game.
	reader.Tick()
	reclaimed, err = s.Clean()
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if reclaimed != 1 {
		t.Fatalf("Clean reclaimed %d after tick, want 1", reclaimed)
	}
}

func TestCleanWithLaggingReaderAmongSeveral(t *testing.T) {
	s := openTestStore(t, Options{})
	fast := s.RegisterReader()
	slow := s.RegisterReader()
	if err := s.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	fast.Tick()
	// slow never ticked → grace epoch stays at 0 → no reclamation.
	if n, _ := s.Clean(); n != 0 {
		t.Fatalf("Clean with lagging reader reclaimed %d", n)
	}
	slow.Tick()
	if n, _ := s.Clean(); n != 1 {
		t.Fatalf("Clean after laggard ticked reclaimed %d, want 1", n)
	}
}

func TestPairTooLarge(t *testing.T) {
	s := openTestStore(t, Options{RegionSize: 128})
	if err := s.Set(make([]byte, 64), make([]byte, 64)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Set err = %v, want ErrTooLarge", err)
	}
	if err := s.Set(make([]byte, 8), make([]byte, s.regionSize-recData-8)); err != nil {
		t.Fatalf("max-size Set rejected: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Set([]byte("persisted"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Close()
	got, ok, err := s2.Get([]byte("persisted"))
	if err != nil || !ok || string(got) != "yes" {
		t.Fatalf("Get after reopen = %q ok=%v err=%v", got, ok, err)
	}
}

func TestReopenGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	if _, err := Open(Options{Path: path, SizeBytes: 64 * 1024, Buckets: 16}); err == nil {
		t.Fatal("bucket mismatch accepted on reopen")
	}
}

// TestFormatTouchesNoRegion: formatting writes the superblock only, so
// a new store pages in a region when Set first takes it, not at Open.
// The file starts as non-zero garbage; every region byte must survive
// Open, and the store must work over it.
func TestFormatTouchesNoRegion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pos")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xEE}, 64*1024), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if s.FreeRegions() != s.regionCount {
		t.Fatalf("FreeRegions = %d of %d on a new store", s.FreeRegions(), s.regionCount)
	}
	for i, c := range s.mem[s.regionsOff:] {
		if c != 0xEE {
			t.Fatalf("Open wrote region byte %d", s.regionsOff+i)
		}
	}
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get([]byte("k")); err != nil || !ok || string(got) != "v" {
		t.Fatalf("Get = %q ok=%v err=%v", got, ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenMidFresh: a store reopened with part of its regions used
// reports the rest as free and keeps allocating past its fresh mark —
// into the free list first, then into never-used regions — without
// handing out a live record's region.
func TestReopenMidFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pos")
	opts := Options{Path: path, SizeBytes: 64 * 1024}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	regions := s.regionCount
	const live = 40
	for i := 0; i < live; i++ {
		if err := s.Set([]byte(fmt.Sprintf("old-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// One outdated version, reclaimed: the free list is not empty either.
	if err := s.Set([]byte("old-0"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Clean(); err != nil || n != 1 {
		t.Fatalf("Clean = %d, %v; want 1", n, err)
	}
	_ = s.Close()

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.FreeRegions(); got != regions-live {
		t.Fatalf("FreeRegions after reopen = %d, want %d of %d", got, regions-live, regions)
	}
	for i := 0; i < regions-live; i++ {
		if err := re.Set([]byte(fmt.Sprintf("new-%d", i)), []byte("w")); err != nil {
			t.Fatalf("Set %d of %d free regions: %v", i, regions-live, err)
		}
	}
	if err := re.Set([]byte("one-too-many"), []byte("x")); !errors.Is(err, ErrFull) {
		t.Fatalf("Set into a full store err = %v, want ErrFull", err)
	}
	for i := 0; i < live; i++ {
		if got, ok, err := re.Get([]byte(fmt.Sprintf("old-%d", i))); err != nil || !ok || string(got) != "v" {
			t.Fatalf("old-%d = %q ok=%v err=%v after refilling the store", i, got, ok, err)
		}
	}
}

func TestEncryptedMode(t *testing.T) {
	var key [ecrypto.KeySize]byte
	copy(key[:], "0123456789abcdef0123456789abcdef")
	s := openTestStore(t, Options{EncryptionKey: &key})

	if err := s.Set([]byte("alice"), []byte("online")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, ok, err := s.Get([]byte("alice"))
	if err != nil || !ok || string(got) != "online" {
		t.Fatalf("Get = %q ok=%v err=%v", got, ok, err)
	}

	// Neither key nor value may appear in the raw store memory.
	if bytes.Contains(s.mem, []byte("alice")) {
		t.Fatal("plaintext key visible in encrypted store")
	}
	if bytes.Contains(s.mem, []byte("online")) {
		t.Fatal("plaintext value visible in encrypted store")
	}

	// Overwrite and delete work in encrypted mode too.
	if err := s.Set([]byte("alice"), []byte("away")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = s.Get([]byte("alice"))
	if !ok || string(got) != "away" {
		t.Fatalf("encrypted overwrite Get = %q", got)
	}
	if found, _ := s.Delete([]byte("alice")); !found {
		t.Fatal("encrypted delete missed")
	}
	if _, ok, _ := s.Get([]byte("alice")); ok {
		t.Fatal("deleted encrypted key still found")
	}
}

func TestEncryptedPersistence(t *testing.T) {
	var key [ecrypto.KeySize]byte
	copy(key[:], "another-32-byte-encryption-key!!")
	path := filepath.Join(t.TempDir(), "enc.pos")
	s, err := Open(Options{Path: path, SizeBytes: 64 * 1024, EncryptionKey: &key})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("sealed value")); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	s2, err := Open(Options{Path: path, SizeBytes: 64 * 1024, EncryptionKey: &key})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get([]byte("k"))
	if err != nil || !ok || string(got) != "sealed value" {
		t.Fatalf("encrypted reopen Get = %q ok=%v err=%v", got, ok, err)
	}

	// The wrong key must not read the data.
	var wrong [ecrypto.KeySize]byte
	s3, err := Open(Options{Path: path, SizeBytes: 64 * 1024, EncryptionKey: &wrong})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok, _ := s3.Get([]byte("k")); ok {
		t.Fatal("wrong key read encrypted data")
	}
}

func TestSealedKeySlot(t *testing.T) {
	s := openTestStore(t, Options{})
	if _, err := s.LoadSealedKey(); !errors.Is(err, ErrNoSealedKey) {
		t.Fatalf("LoadSealedKey on empty slot err = %v", err)
	}
	blob := []byte("sealed key material")
	if err := s.StoreSealedKey(blob); err != nil {
		t.Fatalf("StoreSealedKey: %v", err)
	}
	got, err := s.LoadSealedKey()
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("LoadSealedKey = %q err=%v", got, err)
	}
	if err := s.StoreSealedKey(make([]byte, pageSize)); err == nil {
		t.Fatal("oversized sealed blob accepted")
	}
}

func TestClosedStore(t *testing.T) {
	s := openTestStore(t, Options{})
	_ = s.Close()
	if err := s.Set([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set after close err = %v", err)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close err = %v", err)
	}
	if _, err := s.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close err = %v", err)
	}
	if _, err := s.Clean(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Clean after close err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{SizeBytes: 100}); err == nil {
		t.Fatal("tiny store accepted")
	}
	if _, err := Open(Options{SizeBytes: 1 << 20, RegionSize: 8}); err == nil {
		t.Fatal("tiny region accepted")
	}
	if _, err := Open(Options{SizeBytes: 1 << 20, Buckets: -4}); err == nil {
		t.Fatal("negative buckets accepted")
	}
	// Too many buckets for the superblock page.
	if _, err := Open(Options{SizeBytes: 1 << 20, Buckets: 4096}); err == nil {
		t.Fatal("oversized bucket table accepted")
	}
}

func TestConcurrentSetGet(t *testing.T) {
	s := openTestStore(t, Options{SizeBytes: 4 << 20, Buckets: 16})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("worker-%d", id))
			for i := 0; i < 200; i++ {
				val := []byte(fmt.Sprintf("%d", i))
				if err := s.Set(key, val); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				got, ok, err := s.Get(key)
				if err != nil || !ok {
					t.Errorf("Get: ok=%v err=%v", ok, err)
					return
				}
				if !bytes.Equal(got, val) {
					t.Errorf("Get = %q, want %q (stale read)", got, val)
					return
				}
				if i%50 == 0 {
					if _, err := s.Clean(); err != nil {
						t.Errorf("Clean: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStats(t *testing.T) {
	s := openTestStore(t, Options{})
	_ = s.Set([]byte("a"), []byte("1"))
	_ = s.Set([]byte("a"), []byte("2"))
	_, _, _ = s.Get([]byte("a"))
	_, _ = s.Clean()
	st := s.Stats()
	if st.Sets != 2 || st.Gets != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Cleaned != 1 {
		t.Fatalf("Cleaned = %d, want 1", st.Cleaned)
	}
	if st.FreeRegions != st.Regions-1 {
		t.Fatalf("FreeRegions = %d of %d, want all but one", st.FreeRegions, st.Regions)
	}
}

func TestQuickSetGetModel(t *testing.T) {
	// Property: the store behaves like a map for any operation sequence.
	s := openTestStore(t, Options{SizeBytes: 8 << 20, RegionSize: 512})
	model := map[string]string{}
	f := func(rawKey []byte, value []byte, del bool) bool {
		if len(rawKey) == 0 {
			rawKey = []byte{0}
		}
		if len(rawKey) > 100 {
			rawKey = rawKey[:100]
		}
		if len(value) > 100 {
			value = value[:100]
		}
		key := string(rawKey)
		if del {
			found, err := s.Delete(rawKey)
			if err != nil {
				return false
			}
			_, inModel := model[key]
			if found != inModel {
				return false
			}
			delete(model, key)
		} else {
			if err := s.Set(rawKey, value); err != nil {
				return false
			}
			model[key] = string(value)
		}
		got, ok, err := s.Get(rawKey)
		if err != nil {
			return false
		}
		want, inModel := model[key]
		if ok != inModel {
			return false
		}
		return !ok || string(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
