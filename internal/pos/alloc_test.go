package pos

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/eactors/eactors-go/internal/testutil/allocs"
)

// TestStoreSetAllocatesNothing: Set encodes a pair straight into its
// region — the key sealed deterministically in place and the combined
// pair sealed from pooled scratch into its slot — so it allocates
// nothing, plain or encrypted.
func TestStoreSetAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	for _, encrypted := range []bool{false, true} {
		t.Run(fmt.Sprintf("encrypted=%v", encrypted), func(t *testing.T) {
			opts := Options{SizeBytes: 1 << 20, RegionSize: 512}
			if encrypted {
				key := testEncKey()
				opts.EncryptionKey = &key
			}
			s := openTestStore(t, opts)
			key, val := []byte("user:alice"), bytes.Repeat([]byte{0x5A}, 200)
			set := func() {
				if err := s.Set(key, val); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Clean(); err != nil {
					t.Fatal(err)
				}
			}
			set()
			if n := testing.AllocsPerRun(200, set); n != 0 {
				t.Errorf("Set allocates %v times per call, want 0", n)
			}
			if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, val) {
				t.Fatalf("Get after Sets = %q ok=%v err=%v", got, ok, err)
			}
		})
	}
}

// TestShardedFlushAllocatesNothing: a write-back of 1 KiB values into an
// encrypted, file-backed store — the kv_pipelined_set shape — reuses
// the shard's snapshot batch, value arena and key buffer, and seals in
// place, so a flush allocates nothing however many keys it writes.
func TestShardedFlushAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	const keys = 256
	ss := openTestSharded(t, ShardedOptions{
		Shards: 2, Dir: t.TempDir(), SizeBytes: 4 << 20, RegionSize: 2048,
		EncryptionKey: kvBenchEncKey(),
	})
	names := make([][]byte, keys)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := bytes.Repeat([]byte{0xA5}, 1024)
	round := func() {
		val[0]++
		for _, k := range names {
			if err := ss.Set(k, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round() // first write-back sizes the snapshot buffers
	// AllocsPerRun divides by the 20 runs: a single allocation per key
	// would read keys.
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("a flush of %d dirty keys allocates %v times, want 0", keys, n)
	}
	// Our first round, AllocsPerRun's warm-up run and its 20 measured ones.
	if st := ss.Stats(); st.Dirty != 0 || st.FlushedOps != 22*keys {
		t.Fatalf("after 22 flushes: dirty=%d flushed=%d, want 0 and %d", st.Dirty, st.FlushedOps, 22*keys)
	}
	if got, ok, err := ss.Shard(ShardOf(names[0], 2)).Get(names[0]); err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("persisted value: %d bytes ok=%v err=%v", len(got), ok, err)
	}
}

// openEncryptedWithKey opens an encrypted store holding key=val.
func openEncryptedWithKey(t *testing.T, key, val []byte) *Store {
	t.Helper()
	enc := testEncKey()
	s := openTestStore(t, Options{SizeBytes: 1 << 20, RegionSize: 512, EncryptionKey: &enc})
	if err := s.Set(key, val); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreEncryptedGetAllocatesOnlyTheValue: an encrypted Get seals the
// key it looks up into pooled scratch, so the one allocation left is
// the opened pair whose value it returns.
func TestStoreEncryptedGetAllocatesOnlyTheValue(t *testing.T) {
	allocs.SkipUnderRace(t)
	key, val := []byte("user:alice"), bytes.Repeat([]byte{0x5A}, 200)
	s := openEncryptedWithKey(t, key, val)
	get := func() {
		if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("Get = %d bytes ok=%v err=%v", len(got), ok, err)
		}
	}
	get()
	if n := testing.AllocsPerRun(200, get); n != 1 {
		t.Errorf("encrypted Get allocates %v times per call, want 1 (the value)", n)
	}
}

// TestStoreEncryptedDeleteAllocatesNothing: an encrypted Delete seals
// the key it looks up into pooled scratch and tombstones in place.
func TestStoreEncryptedDeleteAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	key := []byte("user:alice")
	s := openEncryptedWithKey(t, key, []byte("v"))
	del := func() {
		if _, err := s.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	del()
	if n := testing.AllocsPerRun(200, del); n != 0 {
		t.Errorf("encrypted Delete allocates %v times per call, want 0", n)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("Get after Delete: ok=%v err=%v, want absent", ok, err)
	}
}
