package pos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/eactors/eactors-go/internal/ecrypto"
)

// KV-path benchmarks: the store layer of the networked KV service's
// GET/SET pipeline, single Store vs 4-shard ShardedStore, encrypted
// (the service's at-rest configuration). RunParallel models the
// concurrent KVSTORE eactors; the sharded variants win on both axes —
// per-shard locks remove freelist/bucket contention and the write-back
// cache skips the record scan plus the AES-GCM open on hits. The CI
// bench-smoke job runs them and EXPERIMENTS.md records the shard-scaling
// numbers.

const (
	kvBenchKeys  = 1024
	kvBenchValue = 128
)

func kvBenchEncKey() *[ecrypto.KeySize]byte {
	var key [ecrypto.KeySize]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	return &key
}

func kvBenchKeyAt(i int) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], uint64(i%kvBenchKeys))
	return k[:]
}

func benchShardedStore(b *testing.B, shards int) *ShardedStore {
	b.Helper()
	ss, err := OpenSharded(ShardedOptions{
		Shards: shards, SizeBytes: 16 << 20, Buckets: 256,
		EncryptionKey: kvBenchEncKey(),
		// The benchmark owns flushing; no background flusher jitter.
		FlushInterval: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = ss.Close() })
	return ss
}

// kvStoreIface is the surface both store flavours share, so the GET and
// SET loops below are identical for the single and sharded variants.
type kvStoreIface interface {
	Get(key []byte) ([]byte, bool, error)
	Set(key, value []byte) error
}

// singleKV adapts a plain Store: on ErrFull it cleans outdated versions
// and retries once, exactly like the KVSTORE's store maintenance.
type singleKV struct{ s *Store }

func (w singleKV) Get(key []byte) ([]byte, bool, error) { return w.s.Get(key) }
func (w singleKV) Set(key, value []byte) error {
	err := w.s.Set(key, value)
	if errors.Is(err, ErrFull) {
		if _, cerr := w.s.Clean(); cerr == nil {
			err = w.s.Set(key, value)
		}
	}
	return err
}

func kvBenchFill(b *testing.B, st kvStoreIface) {
	b.Helper()
	val := make([]byte, kvBenchValue)
	for i := 0; i < kvBenchKeys; i++ {
		if err := st.Set(kvBenchKeyAt(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func kvBenchGet(b *testing.B, st kvStoreIface) {
	b.Helper()
	kvBenchFill(b, st)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stride the key space per goroutine so readers spread across
		// buckets (and shards) the way affinity-routed KVSTOREs do.
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			i++
			if _, ok, err := st.Get(kvBenchKeyAt(i)); err != nil || !ok {
				b.Errorf("Get: ok=%v err=%v", ok, err)
				return
			}
		}
	})
}

func kvBenchSet(b *testing.B, st kvStoreIface) {
	b.Helper()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		val := make([]byte, kvBenchValue)
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			i++
			if err := st.Set(kvBenchKeyAt(i), val); err != nil {
				b.Errorf("Set: %v", err)
				return
			}
		}
	})
}

func BenchmarkKVGetSingle(b *testing.B) {
	s := benchStore(b, true)
	kvBenchGet(b, singleKV{s})
}

func BenchmarkKVGetSharded4(b *testing.B) {
	ss := benchShardedStore(b, 4)
	kvBenchGet(b, ss)
	b.StopTimer()
	if err := ss.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKVSetSingle(b *testing.B) {
	s := benchStore(b, true)
	kvBenchSet(b, singleKV{s})
}

func BenchmarkKVSetSharded4(b *testing.B) {
	ss := benchShardedStore(b, 4)
	kvBenchSet(b, ss)
	// The write-back cache absorbed the burst; one flush per shard
	// persists it (measured outside the timed loop, like the service's
	// background flusher).
	b.StopTimer()
	if err := ss.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedFlush times the write-back of 4 096 dirty 1 KiB values
// into an encrypted, file-backed 2-shard store with 2 KiB regions (the
// kv_pipelined_set shape) and reports its cost per flushed key: time
// and heap allocations. buckets=64 is the bucket count new stores got
// before the default filled the superblock page; it shows what the
// longer chains cost Set.
func BenchmarkShardedFlush(b *testing.B) {
	for _, buckets := range []int{64, 0} {
		name := fmt.Sprintf("buckets=%d", buckets)
		if buckets == 0 {
			name = "buckets=default"
		}
		b.Run(name, func(b *testing.B) {
			const keys = 4096
			ss, err := OpenSharded(ShardedOptions{
				Shards: 2, Dir: b.TempDir(), SizeBytes: 16 << 20, RegionSize: 2048,
				Buckets: buckets, EncryptionKey: kvBenchEncKey(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = ss.Close() })
			names := make([][]byte, keys)
			for i := range names {
				names[i] = []byte(fmt.Sprintf("key-%d", i))
			}
			val := make([]byte, 1024)
			var ms runtime.MemStats
			var mallocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				val[0]++
				for _, k := range names {
					if err := ss.Set(k, val); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if err := ss.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
			}
			flushed := float64(b.N * keys)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/flushed, "ns/key")
			b.ReportMetric(float64(mallocs)/flushed, "allocs/key")
		})
	}
}
