// Sharded, cached POS: the scaling layer over the paper's single
// Persistent Object Store. A ShardedStore routes every key to one of N
// independent Store shards by a stable hash, so concurrent eactors
// touching different shards never contend on one freelist or one bucket
// table, and each shard persists to its own backing file.
//
// On top of the shards sits a write-back cache: Set and Delete land in
// an in-enclave map first (dirty tracking per shard), and a batched
// Flush applies the newest version of every dirty key to the backing
// Store and issues one Sync per shard — so the fsync cost of a burst of
// writes amortises to one stable-storage round-trip per shard instead
// of one per operation. Cached reads also skip the store's record scan
// and (in encrypted mode) the AES-GCM open, which is what makes the
// sharded GET path scale with cores.
//
// Crash-consistency contract (DESIGN.md §10): a flush snapshots the
// shard under its lock, so the persisted image of a shard is always the
// shard's state at some single point in the operation sequence —
// per-shard prefix consistency. Dirty entries are only marked clean
// after the shard's Sync succeeded; a failed Sync (including one cut by
// the fault injector) keeps them dirty, and the next Flush re-applies
// them. Cross-shard ordering is not preserved: two shards may persist
// prefixes of different lengths.
package pos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
)

// DefaultShards is the shard count when ShardedOptions.Shards is zero.
const DefaultShards = 4

// defaultCacheEntries bounds the clean entries cached per shard; dirty
// entries are always tracked regardless of the cap (they are the
// write-back buffer, not a cache).
const defaultCacheEntries = 4096

// ShardedOptions configures OpenSharded.
type ShardedOptions struct {
	// Shards is the number of independent Store shards (DefaultShards
	// when zero).
	Shards int
	// Dir is the directory holding one backing file per shard
	// (shard-0.pos, shard-1.pos, ...). Empty means volatile in-memory
	// shards.
	Dir string
	// SizeBytes is the per-shard store size.
	SizeBytes int
	// Buckets and RegionSize configure each shard's Store geometry.
	Buckets    int
	RegionSize int
	// EncryptionKey enables encrypted mode on every shard (one key; each
	// shard derives its own pair cipher exactly like a single Store).
	EncryptionKey *[ecrypto.KeySize]byte
	// FlushInterval, when positive, starts a background flusher that
	// periodically writes back dirty shards. Zero leaves flushing to
	// explicit Flush calls (e.g. one per drained request burst).
	FlushInterval time.Duration
	// CacheEntries caps the clean cached entries per shard
	// (defaultCacheEntries when zero; negative disables clean caching).
	CacheEntries int
}

// cacheEntry is one write-back cache slot. val is nil only for
// tombstones (del set). gen counts the entry's Sets and Deletes, so a
// flush tells an entry re-dirtied since its snapshot by one compare.
type cacheEntry struct {
	val   []byte
	gen   uint64
	dirty bool
	del   bool
}

// pending is one dirty entry in a flush snapshot; its value is
// vals[off:off+n] of the shard's snapshot arena.
type pending struct {
	key    string
	e      *cacheEntry
	gen    uint64
	off, n int
	del    bool
}

// shard is one Store plus its write-back cache.
type shard struct {
	store *Store
	mu    sync.RWMutex
	cache map[string]*cacheEntry
	dirty int // number of dirty entries (tracked under mu)
	clean int // number of clean (pure cache) entries

	// The flush snapshot, reused so a write-back allocates nothing once
	// they have grown to the shard's dirty set: the batch, the arena
	// holding copies of its values, and the key the apply loop passes
	// to the Store. Only flushShard touches them, under flushMu.
	batch []pending
	vals  []byte
	key   []byte
}

// ShardedStore is a sharded, cached Persistent Object Store. All
// methods are safe for concurrent use.
type ShardedStore struct {
	shards    []*shard
	cacheCap  int
	closed    atomic.Bool
	stopFlush chan struct{}
	flushWG   sync.WaitGroup
	flushMu   sync.Mutex // serialises whole-store Flush/Close

	hits      atomic.Uint64
	misses    atomic.Uint64
	flushes   atomic.Uint64
	flushOps  atomic.Uint64
	syncFails atomic.Uint64
}

// ShardOf returns the stable shard index for key: the same key maps to
// the same shard across restarts and across processes, which is what
// lets a frontend route requests by key affinity before any store (or
// encryption key) is in sight. FNV-1a over the raw key bytes.
func ShardOf(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv1a(key) % uint32(shards))
}

// OpenSharded creates or re-opens a sharded store. Re-opening a
// directory that was formatted with a different shard count is rejected
// (keys would silently route to the wrong shard).
func OpenSharded(opts ShardedOptions) (*ShardedStore, error) {
	if opts.Shards == 0 {
		opts.Shards = DefaultShards
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("pos: shard count %d", opts.Shards)
	}
	if opts.SizeBytes == 0 {
		opts.SizeBytes = 4 << 20
	}
	cacheCap := opts.CacheEntries
	if cacheCap == 0 {
		cacheCap = defaultCacheEntries
	}
	if cacheCap < 0 {
		cacheCap = 0
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		existing, err := filepath.Glob(filepath.Join(opts.Dir, "shard-*.pos"))
		if err != nil {
			return nil, err
		}
		if len(existing) != 0 && len(existing) != opts.Shards {
			return nil, fmt.Errorf("%w: directory holds %d shard files, want %d",
				ErrBadStore, len(existing), opts.Shards)
		}
	}
	ss := &ShardedStore{
		shards:    make([]*shard, opts.Shards),
		cacheCap:  cacheCap,
		stopFlush: make(chan struct{}),
	}
	for i := range ss.shards {
		path := ""
		if opts.Dir != "" {
			path = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d.pos", i))
		}
		st, err := Open(Options{
			Path:          path,
			SizeBytes:     opts.SizeBytes,
			Buckets:       opts.Buckets,
			RegionSize:    opts.RegionSize,
			EncryptionKey: opts.EncryptionKey,
		})
		if err != nil {
			for _, prev := range ss.shards[:i] {
				_ = prev.store.Close()
			}
			return nil, fmt.Errorf("pos: shard %d: %w", i, err)
		}
		ss.shards[i] = &shard{store: st, cache: make(map[string]*cacheEntry)}
	}
	if opts.FlushInterval > 0 {
		ss.flushWG.Add(1)
		go ss.flushLoop(opts.FlushInterval)
	}
	return ss, nil
}

// flushLoop is the background write-back flusher.
func (ss *ShardedStore) flushLoop(every time.Duration) {
	defer ss.flushWG.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ss.stopFlush:
			return
		case <-ticker.C:
			_ = ss.Flush() // errors surface on the next explicit Flush
		}
	}
}

// Shards returns the shard count.
func (ss *ShardedStore) Shards() int { return len(ss.shards) }

// Shard exposes shard i's underlying Store (telemetry, tests, cleaner
// deployment).
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i].store }

// shardFor routes a key.
func (ss *ShardedStore) shardFor(key []byte) *shard {
	return ss.shards[ShardOf(key, len(ss.shards))]
}

// Get returns a private copy of the newest value stored for key; see
// GetAppend.
func (ss *ShardedStore) Get(key []byte) ([]byte, bool, error) {
	return ss.GetAppend(nil, key)
}

// GetAppend appends the newest value stored for key to dst and returns
// the extended slice, or dst unchanged when key is absent. The value
// comes from the write-back cache when present, else from the shard's
// Store (populating the cache as a clean entry up to the cache cap). A
// cache hit into a dst with room allocates nothing.
func (ss *ShardedStore) GetAppend(dst, key []byte) ([]byte, bool, error) {
	if ss.closed.Load() {
		return dst, false, ErrClosed
	}
	sh := ss.shardFor(key)
	sh.mu.RLock()
	if e, ok := sh.cache[string(key)]; ok {
		found := !e.del
		if found {
			dst = append(dst, e.val...)
		}
		sh.mu.RUnlock()
		ss.hits.Add(1)
		return dst, found, nil
	}
	sh.mu.RUnlock()
	ss.misses.Add(1)
	val, ok, err := sh.store.Get(key)
	if err != nil || !ok {
		return dst, false, err
	}
	if ss.cacheCap > 0 {
		sh.mu.Lock()
		if _, exists := sh.cache[string(key)]; !exists && sh.clean < ss.cacheCap {
			sh.cache[string(key)] = &cacheEntry{val: append([]byte(nil), val...)}
			sh.clean++
		}
		sh.mu.Unlock()
	}
	if dst == nil {
		return val, true, nil // the store decoded a private copy already
	}
	return append(dst, val...), true, nil
}

// Set stores a new version of key in the write-back cache; the backing
// Store sees it at the next flush. Size violations fail synchronously
// (the write-back layer never accepts a pair the store would reject),
// but ErrFull can only surface at flush time — see the contract in
// the package comment.
func (ss *ShardedStore) Set(key, value []byte) error {
	if ss.closed.Load() {
		return ErrClosed
	}
	sh := ss.shardFor(key)
	if err := sh.store.checkPairSize(len(key), len(value)); err != nil {
		return err
	}
	sh.mu.Lock()
	e, ok := sh.cache[string(key)]
	if !ok {
		e = &cacheEntry{}
		sh.cache[string(key)] = e
	} else if !e.dirty {
		sh.clean--
	}
	if !e.dirty {
		sh.dirty++
	}
	e.val = append(e.val[:0], value...)
	e.gen++
	e.dirty = true
	e.del = false
	sh.mu.Unlock()
	return nil
}

// Delete tombstones key in the write-back cache. It reports whether a
// live version existed (in the cache or the backing store).
func (ss *ShardedStore) Delete(key []byte) (bool, error) {
	if ss.closed.Load() {
		return false, ErrClosed
	}
	sh := ss.shardFor(key)
	sh.mu.Lock()
	e, cached := sh.cache[string(key)]
	found := cached && !e.del
	sh.mu.Unlock()
	if !cached {
		var err error
		if _, found, err = sh.store.Get(key); err != nil {
			return false, err
		}
	}
	sh.mu.Lock()
	e, cached = sh.cache[string(key)]
	if !cached {
		e = &cacheEntry{}
		sh.cache[string(key)] = e
	} else if !e.dirty {
		sh.clean--
	}
	if !e.dirty {
		sh.dirty++
	}
	e.val = nil
	e.gen++
	e.dirty = true
	e.del = true
	sh.mu.Unlock()
	return found, nil
}

// flushShard writes back one shard: snapshot the dirty entries under
// the lock, apply them to the Store, one Sync, then mark them clean —
// unless the Sync failed, in which case every entry stays dirty for the
// next attempt. The caller holds flushMu, which owns the snapshot
// buffers.
func (ss *ShardedStore) flushShard(sh *shard) error {
	sh.mu.RLock()
	if sh.dirty == 0 {
		sh.mu.RUnlock()
		return nil
	}
	batch, vals := sh.batch[:0], sh.vals[:0]
	for k, e := range sh.cache {
		if e.dirty {
			batch = append(batch, pending{key: k, e: e, gen: e.gen, off: len(vals), n: len(e.val), del: e.del})
			vals = append(vals, e.val...)
		}
	}
	sh.mu.RUnlock()
	sh.batch, sh.vals = batch, vals
	// Drop the snapshot's entry pointers and key strings when done, so
	// the kept batch does not hold entries the cache has since let go.
	defer clear(batch)

	for _, p := range batch {
		sh.key = append(sh.key[:0], p.key...)
		var err error
		if p.del {
			_, err = sh.store.Delete(sh.key)
		} else {
			val := vals[p.off : p.off+p.n]
			err = sh.store.Set(sh.key, val)
			if errors.Is(err, ErrFull) {
				// Rewriting hot keys leaves outdated records behind;
				// reclaim them and retry once before giving up.
				if _, cerr := sh.store.Clean(); cerr == nil {
					err = sh.store.Set(sh.key, val)
				}
			}
		}
		if err != nil {
			return err
		}
	}
	if err := sh.store.Sync(); err != nil {
		ss.syncFails.Add(1)
		return err
	}
	// Housekeeping rides on the flush: each write-back of a cached key
	// outdates its previous record, so reclaim them while we are here
	// instead of leaving the region budget to drain.
	if _, err := sh.store.Clean(); err != nil {
		return err
	}
	// Durable: mark the flushed entries clean — unless a concurrent
	// writer re-dirtied one (its newer version was not in this snapshot).
	cleaned := 0
	sh.mu.Lock()
	for _, p := range batch {
		e := sh.cache[p.key]
		if e != p.e || !e.dirty || e.gen != p.gen {
			continue
		}
		e.dirty = false
		sh.dirty--
		cleaned++
		if e.del || sh.clean >= ss.cacheCap {
			delete(sh.cache, p.key) // tombstones and overflow leave the cache
		} else {
			sh.clean++
		}
	}
	sh.mu.Unlock()
	ss.flushes.Add(1)
	ss.flushOps.Add(uint64(cleaned))
	return nil
}

// Flush writes back every dirty shard (shards with no dirty entries are
// skipped entirely — the batching win). The first error is returned,
// but every shard is attempted.
func (ss *ShardedStore) Flush() error {
	if ss.closed.Load() {
		return ErrClosed
	}
	ss.flushMu.Lock()
	defer ss.flushMu.Unlock()
	var firstErr error
	for _, sh := range ss.shards {
		if err := ss.flushShard(sh); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close stops the background flusher, performs a final write-back and
// closes every shard. Concurrent Sets racing Close either land before
// the final flush or return ErrClosed.
func (ss *ShardedStore) Close() error {
	if !ss.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(ss.stopFlush)
	ss.flushWG.Wait()
	ss.flushMu.Lock()
	defer ss.flushMu.Unlock()
	var firstErr error
	for _, sh := range ss.shards {
		if err := ss.flushShard(sh); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := sh.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AttachFaults arms every shard's Store with the injector (SitePosSync
// schedules then govern each shard's Sync independently).
func (ss *ShardedStore) AttachFaults(inj *faults.Injector) {
	for _, sh := range ss.shards {
		sh.store.AttachFaults(inj)
	}
}

// ShardedStats aggregates the sharded store's counters.
type ShardedStats struct {
	// Shards is the shard count.
	Shards int
	// Hits / Misses are write-back cache read outcomes.
	Hits, Misses uint64
	// Flushes counts shard write-backs; FlushedOps the dirty entries
	// they persisted; SyncFailures the Syncs that failed (injected or
	// organic).
	Flushes, FlushedOps, SyncFailures uint64
	// Dirty is the current number of dirty entries across shards.
	Dirty int
	// Store aggregates the underlying shard stores.
	Store Stats
}

// Stats returns a snapshot of the sharded store's counters.
func (ss *ShardedStore) Stats() ShardedStats {
	out := ShardedStats{
		Shards:       len(ss.shards),
		Hits:         ss.hits.Load(),
		Misses:       ss.misses.Load(),
		Flushes:      ss.flushes.Load(),
		FlushedOps:   ss.flushOps.Load(),
		SyncFailures: ss.syncFails.Load(),
	}
	for _, sh := range ss.shards {
		sh.mu.RLock()
		out.Dirty += sh.dirty
		sh.mu.RUnlock()
		st := sh.store.Stats()
		out.Store.Sets += st.Sets
		out.Store.Gets += st.Gets
		out.Store.Cleaned += st.Cleaned
		out.Store.Regions += st.Regions
		out.Store.FreeRegions += st.FreeRegions
	}
	return out
}
