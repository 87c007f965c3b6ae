package pos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
)

func openTestSharded(t *testing.T, opts ShardedOptions) *ShardedStore {
	t.Helper()
	if opts.SizeBytes == 0 {
		opts.SizeBytes = 256 * 1024
	}
	ss, err := OpenSharded(opts)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	t.Cleanup(func() { _ = ss.Close() })
	return ss
}

func TestShardOfStable(t *testing.T) {
	// Routing must be a pure function of the key bytes.
	for _, n := range []int{1, 2, 4, 7, 16} {
		a := ShardOf([]byte("user:42"), n)
		b := ShardOf([]byte("user:42"), n)
		if a != b {
			t.Fatalf("ShardOf unstable for n=%d: %d vs %d", n, a, b)
		}
		if a < 0 || a >= n {
			t.Fatalf("ShardOf out of range for n=%d: %d", n, a)
		}
	}
	// And keys must actually spread across shards.
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		seen[ShardOf([]byte(fmt.Sprintf("key-%d", i)), 4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 keys hit only %d of 4 shards", len(seen))
	}
}

func TestShardedSetGetDelete(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 4})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := ss.Set(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		got, ok, err := ss.Get(k)
		if err != nil || !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v", k, got, ok, err)
		}
	}
	found, err := ss.Delete([]byte("key-7"))
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, ok, _ := ss.Get([]byte("key-7")); ok {
		t.Fatal("deleted key still found")
	}
	if found, _ := ss.Delete([]byte("never")); found {
		t.Fatal("absent delete reported found")
	}
}

func TestShardedWriteBackIsDeferred(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 2})
	if err := ss.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Before a flush the backing stores know nothing.
	total := uint64(0)
	for i := 0; i < ss.Shards(); i++ {
		total += ss.Shard(i).Stats().Sets
	}
	if total != 0 {
		t.Fatalf("backing stores saw %d sets before flush", total)
	}
	if st := ss.Stats(); st.Dirty != 1 {
		t.Fatalf("Dirty = %d, want 1", st.Dirty)
	}
	if err := ss.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sh := ss.shardFor([]byte("k"))
	if got, ok, _ := sh.store.Get([]byte("k")); !ok || string(got) != "v" {
		t.Fatalf("backing store after flush = %q ok=%v", got, ok)
	}
	if st := ss.Stats(); st.Dirty != 0 || st.Flushes == 0 || st.FlushedOps != 1 {
		t.Fatalf("Stats after flush = %+v", st)
	}
}

func TestShardedFlushSkipsCleanShards(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 4})
	if err := ss.Set([]byte("only"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	flushes := ss.Stats().Flushes
	if flushes != 1 {
		t.Fatalf("Flushes = %d, want 1 (only the dirty shard)", flushes)
	}
	// A second flush with nothing dirty is free.
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ss.Stats().Flushes; got != flushes {
		t.Fatalf("clean flush bumped Flushes to %d", got)
	}
}

func TestShardedPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenSharded(ShardedOptions{Shards: 4, Dir: dir, SizeBytes: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := ss.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Delete([]byte("k3")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil { // Close performs the final flush
		t.Fatal(err)
	}

	re, err := OpenSharded(ShardedOptions{Shards: 4, Dir: dir, SizeBytes: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		got, ok, err := re.Get(k)
		if i == 3 {
			if ok {
				t.Fatalf("deleted key %s survived reopen", k)
			}
			continue
		}
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after reopen = %q ok=%v err=%v", k, got, ok, err)
		}
	}

	// A different shard count must be rejected, not misroute keys.
	if _, err := OpenSharded(ShardedOptions{Shards: 2, Dir: dir, SizeBytes: 256 * 1024}); !errors.Is(err, ErrBadStore) {
		t.Fatalf("shard-count mismatch err = %v, want ErrBadStore", err)
	}
}

func TestShardedEncryptedMode(t *testing.T) {
	key := testEncKey()
	ss := openTestSharded(t, ShardedOptions{Shards: 2, EncryptionKey: &key})
	if err := ss.Set([]byte("alice"), []byte("online")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ss.Shards(); i++ {
		if bytes.Contains(ss.Shard(i).mem, []byte("alice")) || bytes.Contains(ss.Shard(i).mem, []byte("online")) {
			t.Fatal("plaintext visible in encrypted shard memory")
		}
	}
	got, ok, err := ss.Get([]byte("alice"))
	if err != nil || !ok || string(got) != "online" {
		t.Fatalf("Get = %q ok=%v err=%v", got, ok, err)
	}
	// Oversized pairs are rejected synchronously, before any flush.
	if err := ss.Set(make([]byte, 64), make([]byte, ss.shards[0].store.regionSize)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Set err = %v, want ErrTooLarge", err)
	}
}

func TestShardedSyncFailureKeepsEntriesDirty(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 1})
	// Fail the first Sync, succeed afterwards.
	inj := faults.New(faults.Config{Seed: 1, Rules: []faults.Rule{
		{Site: faults.SitePosSync, Class: faults.SyncFail, Rate: 1},
	}})
	ss.AttachFaults(inj)
	if err := ss.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Flush(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("Flush under injected sync failure err = %v", err)
	}
	if st := ss.Stats(); st.Dirty != 1 || st.SyncFailures != 1 {
		t.Fatalf("Stats after failed flush = %+v, want entry still dirty", st)
	}
	// Disarm and retry: nothing was lost.
	ss.AttachFaults(nil)
	if err := ss.Flush(); err != nil {
		t.Fatalf("retry Flush: %v", err)
	}
	if got, ok, _ := ss.Shard(0).Get([]byte("k")); !ok || string(got) != "v" {
		t.Fatalf("backing store after retried flush = %q ok=%v", got, ok)
	}
}

func TestShardedBackgroundFlusher(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 2, FlushInterval: 2 * time.Millisecond})
	if err := ss.Set([]byte("bg"), []byte("flushed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ss.Stats().Dirty != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never wrote back")
		}
		time.Sleep(time.Millisecond)
	}
	sh := ss.shardFor([]byte("bg"))
	if got, ok, _ := sh.store.Get([]byte("bg")); !ok || string(got) != "flushed" {
		t.Fatalf("backing store = %q ok=%v", got, ok)
	}
}

// TestShardedFlushRacesClose is the -race regression for the write-back
// shutdown path: writers and the background flusher race Close, and
// every operation must either complete before the final flush or return
// ErrClosed — never corrupt state or deadlock.
func TestShardedFlushRacesClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		ss, err := OpenSharded(ShardedOptions{
			Shards: 4, SizeBytes: 256 * 1024, FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					k := []byte(fmt.Sprintf("w%d-%d", id, i%32))
					if err := ss.Set(k, []byte("x")); errors.Is(err, ErrClosed) {
						return
					}
					if _, _, err := ss.Get(k); errors.Is(err, ErrClosed) {
						return
					}
					if i%7 == 0 {
						if err := ss.Flush(); errors.Is(err, ErrClosed) {
							return
						}
					}
				}
			}(w)
		}
		close(start)
		time.Sleep(2 * time.Millisecond)
		if err := ss.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if err := ss.Close(); err != nil {
			t.Fatalf("double Close: %v", err)
		}
	}
}

// TestShardedCacheMissRacesClose: Gets that miss the cache read the
// shard's Store without any ShardedStore lock, so Close can run while
// they walk the mapping. A volatile store's mapping is unmapped by
// Close; each such Get must finish first or return ErrClosed, never
// fault on the released memory.
func TestShardedCacheMissRacesClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		ss, err := OpenSharded(ShardedOptions{
			Shards: 2, SizeBytes: 256 * 1024, CacheEntries: -1,
			EncryptionKey: kvBenchEncKey(),
		})
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{0x3C}, 100)
		keys := make([][]byte, 64)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%d", i))
			if err := ss.Set(keys[i], val); err != nil {
				t.Fatal(err)
			}
		}
		if err := ss.Flush(); err != nil { // with no clean cache, every Get now misses
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := id; ; i++ {
					got, ok, err := ss.Get(keys[i%len(keys)])
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil || !ok || !bytes.Equal(got, val) {
						t.Errorf("Get = %d bytes ok=%v err=%v", len(got), ok, err)
						return
					}
				}
			}(w)
		}
		time.Sleep(time.Millisecond)
		if err := ss.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
	}
}

func TestShardedConcurrentAcrossShards(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 8, SizeBytes: 1 << 20})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("worker-%d-%d", id, i%16))
				v := []byte(fmt.Sprintf("%d", i))
				if err := ss.Set(k, v); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				got, ok, err := ss.Get(k)
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Errorf("Get = %q ok=%v err=%v, want %q", got, ok, err, v)
					return
				}
				if i%50 == 0 {
					if err := ss.Flush(); err != nil {
						t.Errorf("Flush: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestShardedRange(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 4})
	want := map[string]string{}
	for i := 0; i < 32; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if err := ss.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Half flushed, half still write-back-only; one flushed key deleted
	// and one overwritten in the cache — Range must see the overlay.
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Delete([]byte("k0")); err != nil {
		t.Fatal(err)
	}
	delete(want, "k0")
	if err := ss.Set([]byte("k1"), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	want["k1"] = "newer"
	if err := ss.Set([]byte("fresh"), []byte("unflushed")); err != nil {
		t.Fatal(err)
	}
	want["fresh"] = "unflushed"

	got := map[string]string{}
	if err := ss.Range(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range saw %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%s] = %q, want %q", k, got[k], v)
		}
	}
}

func TestShardedQuickModel(t *testing.T) {
	// Property: sharded store + write-back behaves like a map, with
	// flushes interleaved at arbitrary points.
	ss := openTestSharded(t, ShardedOptions{Shards: 4, SizeBytes: 8 << 20, RegionSize: 512})
	model := map[string]string{}
	step := 0
	f := func(rawKey, value []byte, del bool) bool {
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
			found, err := ss.Delete(rawKey)
			if err != nil {
				return false
			}
			_, inModel := model[key]
			if found != inModel {
				return false
			}
			delete(model, key)
		} else {
			if err := ss.Set(rawKey, value); err != nil {
				return false
			}
			model[key] = string(value)
		}
		step++
		if step%17 == 0 {
			if err := ss.Flush(); err != nil {
				return false
			}
		}
		got, ok, err := ss.Get(rawKey)
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

func TestShardedClosedErrors(t *testing.T) {
	ss := openTestSharded(t, ShardedOptions{Shards: 2})
	_ = ss.Close()
	if err := ss.Set([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set after close err = %v", err)
	}
	if _, _, err := ss.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close err = %v", err)
	}
	if _, err := ss.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close err = %v", err)
	}
	if err := ss.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close err = %v", err)
	}
	if err := ss.Range(func(k, v []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Range after close err = %v", err)
	}
}

// Range calls fn for the newest live version of every key across all
// shards, write-back entries taking precedence over persisted ones.
func (ss *ShardedStore) Range(fn func(key, value []byte) bool) error {
	if ss.closed.Load() {
		return ErrClosed
	}
	for _, sh := range ss.shards {
		sh.mu.RLock()
		overlay := make(map[string]*cacheEntry, len(sh.cache))
		for k, e := range sh.cache {
			if e.dirty {
				overlay[k] = &cacheEntry{val: append([]byte(nil), e.val...), del: e.del}
			}
		}
		sh.mu.RUnlock()
		stop := false
		err := sh.store.Range(func(key, value []byte) bool {
			if e, ok := overlay[string(key)]; ok {
				delete(overlay, string(key))
				if e.del {
					return true
				}
				value = e.val
			}
			if !fn(key, value) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		for k, e := range overlay {
			if e.del {
				continue
			}
			if !fn([]byte(k), e.val) {
				return nil
			}
		}
	}
	return nil
}
