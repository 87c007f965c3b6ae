package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/profile"
)

// buildProfiledPair wires a 2-actor deployment with cost accounting at
// sample-every-1 (every seal/open is clocked) and hands back the
// test-harness endpoints. encrypted places the actors in two enclaves,
// so the channel seals.
func buildProfiledPair(t *testing.T, encrypted bool) (a, b *Endpoint, rt *Runtime) {
	t.Helper()
	cfg := Config{
		Profile:            true,
		ProfileSampleEvery: 1,
		Workers:            []WorkerSpec{{}},
		PoolNodes:          16,
		NodePayload:        128,
		Actors: []Spec{
			{Name: "a", Worker: 0, Body: func(*Self) {}},
			{Name: "b", Worker: 0, Body: func(*Self) {}},
		},
		Channels: []ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: 8}},
	}
	if encrypted {
		cfg.Enclaves = []EnclaveSpec{{Name: "ea"}, {Name: "eb"}}
		cfg.Actors[0].Enclave = "ea"
		cfg.Actors[1].Enclave = "eb"
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(rt.Stop)
	if a, err = rt.EndpointForTest("a", "link"); err != nil {
		t.Fatal(err)
	}
	if b, err = rt.EndpointForTest("b", "link"); err != nil {
		t.Fatal(err)
	}
	return a, b, rt
}

// actorCost pulls one actor's profile out of a model.
func actorCost(t *testing.T, m profile.Model, name string) profile.ActorCost {
	t.Helper()
	for _, a := range m.Actors {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("actor %q not in model %+v", name, m.Actors)
	return profile.ActorCost{}
}

func TestProfileDisabledByDefault(t *testing.T) {
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors:  []Spec{{Name: "a", Worker: 0, Body: func(*Self) {}}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if rt.ProfileEnabled() {
		t.Fatal("ProfileEnabled without Config.Profile")
	}
	if m := rt.CostProfile(); len(m.Actors) != 0 || m.V != profile.SnapshotVersion {
		t.Fatalf("disabled CostProfile = %+v, want empty versioned model", m)
	}
}

func TestProfilePlainSendRecv(t *testing.T) {
	a, b, rt := buildProfiledPair(t, false)
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 128)
	for i := 0; i < 3; i++ {
		if _, ok, err := b.Recv(buf); !ok || err != nil {
			t.Fatalf("Recv: ok=%v err=%v", ok, err)
		}
	}
	m := rt.CostProfile()
	ca, cb := actorCost(t, m, "a"), actorCost(t, m, "b")
	if ca.MsgsSent != 3 || ca.BytesSent != 15 {
		t.Fatalf("sender cost = %+v, want 3 msgs / 15 bytes", ca)
	}
	if cb.MsgsRecv != 3 || cb.BytesRecv != 15 {
		t.Fatalf("receiver cost = %+v, want 3 msgs / 15 bytes", cb)
	}
	if ca.SealOps != 0 || cb.OpenOps != 0 {
		t.Fatalf("plaintext channel must not charge seal/open: %+v %+v", ca, cb)
	}
	if len(m.Edges) != 1 || m.Edges[0].Src != "a" || m.Edges[0].Dst != "b" || m.Edges[0].Msgs != 3 {
		t.Fatalf("edges = %+v, want a->b with 3 msgs", m.Edges)
	}
	if m.SampleEvery != 1 {
		t.Fatalf("SampleEvery = %d, want 1", m.SampleEvery)
	}
}

func TestProfileEncryptedChargesSealOpen(t *testing.T) {
	a, b, rt := buildProfiledPair(t, true)
	payload := []byte("sealed-payload")
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, ok, err := b.Recv(buf); !ok || err != nil {
		t.Fatalf("Recv: ok=%v err=%v", ok, err)
	}
	m := rt.CostProfile()
	ca, cb := actorCost(t, m, "a"), actorCost(t, m, "b")
	if ca.SealOps != 1 || ca.SealBytes != uint64(len(payload)) || ca.SealNs == 0 {
		t.Fatalf("sender seal cost = %+v, want 1 op / %d bytes / nonzero ns", ca, len(payload))
	}
	if cb.OpenOps != 1 || cb.OpenBytes != uint64(len(payload)) || cb.OpenNs == 0 {
		t.Fatalf("receiver open cost = %+v, want 1 op / %d bytes / nonzero ns", cb, len(payload))
	}
	// Bytes are plaintext on both sides: sealed-frame overhead must not
	// leak into the traffic counters.
	if ca.BytesSent != uint64(len(payload)) || cb.BytesRecv != uint64(len(payload)) {
		t.Fatalf("traffic bytes = sent %d recv %d, want plaintext %d", ca.BytesSent, cb.BytesRecv, len(payload))
	}
	if len(m.Enclaves) != 2 {
		t.Fatalf("enclaves = %+v, want ea and eb", m.Enclaves)
	}
}

func TestProfileBatchPaths(t *testing.T) {
	a, b, rt := buildProfiledPair(t, true)
	sent, err := a.SendBatch(frames("m1", "m2", "m3"))
	if err != nil || sent != 3 {
		t.Fatalf("SendBatch: sent=%d err=%v", sent, err)
	}
	bufs := make([][]byte, 3)
	lens := make([]int, 3)
	for i := range bufs {
		bufs[i] = make([]byte, 128)
	}
	got, err := b.RecvBatch(bufs, lens)
	if err != nil || got != 3 {
		t.Fatalf("RecvBatch: got=%d err=%v", got, err)
	}

	m := rt.CostProfile()
	ca, cb := actorCost(t, m, "a"), actorCost(t, m, "b")
	wantBytes := uint64(len("m1m2m3"))
	if ca.MsgsSent != 3 || ca.BytesSent != wantBytes {
		t.Fatalf("sender = %+v, want 3 msgs / %d bytes over the batch path", ca, wantBytes)
	}
	if cb.MsgsRecv != 3 || cb.BytesRecv != wantBytes {
		t.Fatalf("receiver = %+v, want 3 msgs / %d bytes over the batch path", cb, wantBytes)
	}
	if ca.SealOps != 3 || cb.OpenOps != 3 {
		t.Fatalf("seal/open ops = %d/%d, want 3/3 (every sealed message exact)", ca.SealOps, cb.OpenOps)
	}
}

// TestProfileRunningWorkers drives a live deployment: an enclaved
// consumer fed by a producer, asserting invocation counts, body CPU
// time and crossing attribution land on the right actors.
func TestProfileRunningWorkers(t *testing.T) {
	var consumed atomic.Uint64
	cfg := Config{
		Profile:   true,
		Workers:   []WorkerSpec{{}, {}},
		Enclaves:  []EnclaveSpec{{Name: "trusted"}},
		PoolNodes: 32,
		Actors: []Spec{
			{Name: "producer", Worker: 0, Body: func(*Self) {}},
			{
				Name: "consumer", Worker: 1, Enclave: "trusted",
				Body: func(self *Self) {
					ch := self.MustChannel("link")
					buf := make([]byte, 64)
					for {
						_, ok, _ := ch.Recv(buf)
						if !ok {
							return
						}
						consumed.Add(1)
						self.Progress()
					}
				},
			},
		},
		Channels: []ChannelSpec{{Name: "link", A: "producer", B: "consumer", Capacity: 16}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	ep := rt.actors["producer"].endpoints["link"]
	for i := 0; i < 10; i++ {
		if err := ep.SendRetry([]byte("work"), time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for consumed.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if consumed.Load() < 10 {
		t.Fatalf("consumer handled %d/10 messages", consumed.Load())
	}

	m := rt.CostProfile()
	cc := actorCost(t, m, "consumer")
	if cc.Invocations == 0 || cc.InvokeNs == 0 {
		t.Fatalf("consumer invocation cost = %+v, want nonzero invocations and CPU", cc)
	}
	if cc.Crossings == 0 {
		t.Fatal("consumer crossings = 0, want the enclave transitions charged to it")
	}
	if cp := actorCost(t, m, "producer"); cp.Crossings != 0 {
		t.Fatalf("producer crossings = %d, want 0 (untrusted actor)", cp.Crossings)
	}
	if cc.Enclave != "trusted" {
		t.Fatalf("consumer enclave = %q, want trusted", cc.Enclave)
	}
	if len(m.Edges) != 1 || m.Edges[0].Src != "producer" || m.Edges[0].Dst != "consumer" {
		t.Fatalf("edges = %+v, want producer->consumer", m.Edges)
	}
	if len(m.Enclaves) != 1 || m.Enclaves[0].Name != "trusted" {
		t.Fatalf("enclaves = %+v, want trusted", m.Enclaves)
	}
}
