package bench

import (
	"fmt"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/sgx"
)

// benchKVPipelined measures the per-op cost of the framed multiplexed
// transport at a fixed pipelining depth: one TCP connection, a sliding
// ring of depth in-flight GETs against an untrusted single-shard
// deployment (zero-cost platform, so ns/op is transport + runtime, not
// simulated enclave charges). Deeper rings amortise the loopback
// round-trip over concurrent requests — the same effect the depth sweep
// in EXPERIMENTS.md measures end to end with eactors-load kv.
func benchKVPipelined(b *testing.B, depth int) {
	srv, err := kv.Start(kv.Options{
		Shards:   1,
		Platform: sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())),
	})
	if err != nil {
		b.Fatalf("kv.Start: %v", err)
	}
	defer srv.Stop()

	const keys = 256
	value := randomPayload(128)
	keyNames := make([][]byte, keys)
	for i := range keyNames {
		keyNames[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	loader, err := kv.DialPipelined(srv.Addr(), kv.PipelineOptions{Timeout: 30 * time.Second})
	if err != nil {
		b.Fatalf("dial loader: %v", err)
	}
	for i, k := range keyNames {
		if err := loader.Set(k, value); err != nil {
			_ = loader.Close()
			b.Fatalf("preload key %d: %v", i, err)
		}
	}
	_ = loader.Close()

	c, err := kv.DialPipelined(srv.Addr(), kv.PipelineOptions{Depth: depth, Timeout: 30 * time.Second})
	if err != nil {
		b.Fatalf("DialPipelined: %v", err)
	}
	defer c.Close()

	b.ReportAllocs()
	b.ResetTimer()
	ring := make([]*kv.Pending, 0, depth)
	reap := func(p *kv.Pending) {
		resp, err := p.Wait()
		if err != nil {
			b.Fatalf("wait: %v", err)
		}
		if resp.Status != kv.StatusValue {
			b.Fatalf("status = %d", resp.Status)
		}
	}
	rng := uint32(0x9e3779b9)
	for i := 0; i < b.N; i++ {
		rng = rng*1664525 + 1013904223
		p, err := c.IssueGet(keyNames[int(rng>>8)%keys])
		if err != nil {
			b.Fatalf("issue %d: %v", i, err)
		}
		ring = append(ring, p)
		if len(ring) == depth {
			reap(ring[0])
			copy(ring, ring[1:])
			ring = ring[:len(ring)-1]
		}
	}
	for _, p := range ring {
		reap(p)
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(st.Resent), "resends")
	if st.Completed != uint64(b.N) {
		b.Fatalf("completed %d of %d", st.Completed, b.N)
	}
}

func BenchmarkKVPipelined1(b *testing.B)  { benchKVPipelined(b, 1) }
func BenchmarkKVPipelined16(b *testing.B) { benchKVPipelined(b, 16) }
func BenchmarkKVPipelined64(b *testing.B) { benchKVPipelined(b, 64) }

// BenchmarkKVPipelinedDepthSweep prints the full connection-throughput
// curve (not gated in CI; run manually for the EXPERIMENTS.md table).
func BenchmarkKVPipelinedDepthSweep(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchKVPipelined(b, depth)
		})
	}
}
