package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPrivatePoolSelection checks the paper's private/public pool split
// (Section 3.3): same-enclave channels use the enclave's private pool,
// cross-enclave channels the public pool.
func TestPrivatePoolSelection(t *testing.T) {
	p := zeroPlatform()
	body := func(*Self) {}
	cfg := Config{
		Enclaves: []EnclaveSpec{
			{Name: "home", PrivatePoolNodes: 8},
			{Name: "away"},
		},
		Workers:     []WorkerSpec{{}},
		PoolNodes:   16,
		NodePayload: 128,
		Actors: []Spec{
			{Name: "in1", Enclave: "home", Worker: 0, Body: body},
			{Name: "in2", Enclave: "home", Worker: 0, Body: body},
			{Name: "out", Enclave: "away", Worker: 0, Body: body},
		},
		Channels: []ChannelSpec{
			{Name: "intra", A: "in1", B: "in2"},
			{Name: "inter", A: "in1", B: "out"},
		},
	}
	rt, err := NewRuntime(p, cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Stop()

	private, ok := rt.PrivatePool("home")
	if !ok {
		t.Fatal("no private pool for home")
	}
	if private.Free() != 8 {
		t.Fatalf("private pool Free = %d, want 8", private.Free())
	}
	if _, ok := rt.PrivatePool("away"); ok {
		t.Fatal("away has a private pool without requesting one")
	}

	intra := rt.actors["in1"].endpoints["intra"]
	inter := rt.actors["in1"].endpoints["inter"]
	if intra.pool != private {
		t.Fatal("intra-enclave channel does not use the private pool")
	}
	if inter.pool != rt.Pool() {
		t.Fatal("inter-enclave channel does not use the public pool")
	}

	// Sending on the intra channel consumes private nodes only.
	if err := intra.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if private.Free() != 7 {
		t.Fatalf("private Free = %d after send, want 7", private.Free())
	}
	if rt.Pool().Free() != 16 {
		t.Fatalf("public Free = %d after private send, want 16", rt.Pool().Free())
	}
}

// TestPrivatePoolEndToEnd runs a ping-pong entirely inside one enclave
// over its private pool.
func TestPrivatePoolEndToEnd(t *testing.T) {
	var rounds atomic.Int64
	cfg := pingPongConfig(&rounds, 50, "shared", "shared", false)
	cfg.Enclaves[0].PrivatePoolNodes = 4
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()
	if rounds.Load() < 50 {
		t.Fatalf("rounds = %d", rounds.Load())
	}
	private, _ := rt.PrivatePool("shared")
	if private.Free() != 4 {
		t.Fatalf("private pool leaked: Free = %d, want 4", private.Free())
	}
}
