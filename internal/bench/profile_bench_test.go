package bench

import (
	"testing"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

// buildProfilePair builds a one-channel deployment with cost accounting
// switched on or off, returning the two endpoints. The runtime's
// workers never run; the benchmark drives the endpoints directly, the
// way the core channel and trace benchmarks do.
func buildProfilePair(b *testing.B, profiled, encrypted bool) (src, dst *core.Endpoint) {
	b.Helper()
	cfg := core.Config{
		Profile:     profiled,
		Workers:     []core.WorkerSpec{{}},
		PoolNodes:   512,
		NodePayload: 256,
		Actors: []core.Spec{
			{Name: "a", Worker: 0, Body: func(*core.Self) {}},
			{Name: "b", Worker: 0, Body: func(*core.Self) {}},
		},
		Channels: []core.ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: 256}},
	}
	if encrypted {
		cfg.Enclaves = []core.EnclaveSpec{{Name: "ea"}, {Name: "eb"}}
		cfg.Actors[0].Enclave = "ea"
		cfg.Actors[1].Enclave = "eb"
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		b.Fatalf("NewRuntime: %v", err)
	}
	b.Cleanup(rt.Stop)
	if src, err = rt.EndpointForTest("a", "link"); err != nil {
		b.Fatal(err)
	}
	if dst, err = rt.EndpointForTest("b", "link"); err != nil {
		b.Fatal(err)
	}
	return src, dst
}

func benchProfileSendRecv(b *testing.B, profiled, encrypted bool) {
	src, dst := buildProfilePair(b, profiled, encrypted)
	payload := make([]byte, 64)
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(payload); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := dst.Recv(buf); !ok || err != nil {
			b.Fatalf("Recv: ok=%v err=%v", ok, err)
		}
	}
}

func benchProfileBatch(b *testing.B, profiled bool) {
	const batch = 64
	src, dst := buildProfilePair(b, profiled, false)
	payload := make([]byte, 64)
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = payload
	}
	bufs, lens := core.BatchBufs(batch, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		sent, err := src.SendBatch(payloads)
		if err != nil || sent != batch {
			b.Fatalf("SendBatch = %d, %v", sent, err)
		}
		got, err := dst.RecvBatch(bufs, lens)
		if err != nil || got != batch {
			b.Fatalf("RecvBatch = %d, %v", got, err)
		}
	}
}

// BenchmarkProfileOff is the compiled-in-but-disabled cost of the cost
// accounting layer on the channel hot path (acceptance budget ≤2% vs
// the unprofiled baseline: one nil check per path).
func BenchmarkProfileOff(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchProfileSendRecv(b, false, false) })
	b.Run("single-enc", func(b *testing.B) { benchProfileSendRecv(b, false, true) })
	b.Run("batch64", func(b *testing.B) { benchProfileBatch(b, false) })
}

// BenchmarkProfileSampled is the armed cost, seal/open clocked on the
// hop's 1-in-16 sampling tick: counters are unconditional atomics on the
// owner's cache-padded cell; only the decimated ops pay clock reads.
func BenchmarkProfileSampled(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchProfileSendRecv(b, true, false) })
	b.Run("single-enc", func(b *testing.B) { benchProfileSendRecv(b, true, true) })
	b.Run("batch64", func(b *testing.B) { benchProfileBatch(b, true) })
}
