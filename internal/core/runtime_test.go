package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/sgx"
)

func zeroPlatform() *sgx.Platform {
	return sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel()))
}

// pingPongConfig builds the paper's Listing-1 ping-pong with the given
// placement; rounds counts completed ping-pong pairs.
func pingPongConfig(rounds *atomic.Int64, target int64, pingEnclave, pongEnclave string, plaintext bool) Config {
	var enclaves []EnclaveSpec
	seen := map[string]bool{}
	for _, e := range []string{pingEnclave, pongEnclave} {
		if e != "" && !seen[e] {
			enclaves = append(enclaves, EnclaveSpec{Name: e})
			seen[e] = true
		}
	}
	type pingState struct{ first bool }
	return Config{
		Enclaves: enclaves,
		Workers:  []WorkerSpec{{}, {}},
		Channels: []ChannelSpec{{Name: "pp", A: "ping", B: "pong", Plaintext: plaintext}},
		Actors: []Spec{
			{
				Name: "ping", Enclave: pingEnclave, Worker: 0,
				State: &pingState{first: true},
				Body: func(self *Self) {
					st := self.State.(*pingState)
					ch := self.MustChannel("pp")
					if st.first {
						st.first = false
						_ = ch.Send([]byte("ping")) //sendcheck:ok
						self.Progress()
						return
					}
					buf := make([]byte, 16)
					n, ok, err := ch.Recv(buf)
					if err != nil || !ok {
						return
					}
					if string(buf[:n]) != "pong" {
						panic("ping received " + string(buf[:n]))
					}
					if rounds.Add(1) >= target {
						self.StopRuntime()
						return
					}
					_ = ch.Send([]byte("ping")) //sendcheck:ok
					self.Progress()
				},
			},
			{
				Name: "pong", Enclave: pongEnclave, Worker: 1,
				Body: func(self *Self) {
					ch := self.MustChannel("pp")
					buf := make([]byte, 16)
					n, ok, err := ch.Recv(buf)
					if err != nil || !ok {
						return
					}
					if string(buf[:n]) != "ping" {
						panic("pong received " + string(buf[:n]))
					}
					_ = ch.Send([]byte("pong")) //sendcheck:ok
					self.Progress()
				},
			},
		},
	}
}

func runPingPong(t *testing.T, pingEnclave, pongEnclave string, plaintext bool) *Runtime {
	t.Helper()
	var rounds atomic.Int64
	cfg := pingPongConfig(&rounds, 50, pingEnclave, pongEnclave, plaintext)
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()
	if got := rounds.Load(); got < 50 {
		t.Fatalf("rounds = %d, want >= 50", got)
	}
	return rt
}

func waitOrFatal(t *testing.T, rt *Runtime, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		rt.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("runtime did not finish in time")
	}
}

func TestPingPongUntrusted(t *testing.T) {
	runPingPong(t, "", "", false)
}

func TestPingPongSameEnclave(t *testing.T) {
	rt := runPingPong(t, "e1", "e1", false)
	ch, _ := rt.ChannelByName("pp")
	if ch.Encrypted() {
		t.Fatal("same-enclave channel was encrypted")
	}
}

func TestPingPongCrossEnclave(t *testing.T) {
	rt := runPingPong(t, "e1", "e2", false)
	ch, _ := rt.ChannelByName("pp")
	if !ch.Encrypted() {
		t.Fatal("cross-enclave channel was not encrypted")
	}
}

func TestPingPongCrossEnclavePlaintext(t *testing.T) {
	rt := runPingPong(t, "e1", "e2", true)
	ch, _ := rt.ChannelByName("pp")
	if ch.Encrypted() {
		t.Fatal("plaintext-configured channel was encrypted")
	}
}

func TestPingPongMixedTrust(t *testing.T) {
	// One side enclaved, one untrusted: the uniform primitives must work
	// unchanged (the paper's flexibility claim).
	rt := runPingPong(t, "e1", "", false)
	ch, _ := rt.ChannelByName("pp")
	if !ch.Encrypted() {
		t.Fatal("enclave-to-untrusted channel was not encrypted")
	}
}

// TestColocatedWorkerNeverLeavesEnclave checks the paper's key deployment
// property (Section 3.2): a worker whose eactors all live in one enclave
// pays no transitions after entering it.
func TestColocatedWorkerNeverLeavesEnclave(t *testing.T) {
	p := zeroPlatform()
	var rounds atomic.Int64
	cfg := pingPongConfig(&rounds, 200, "shared", "shared", false)
	// Put both actors on one worker to force co-located execution.
	cfg.Actors[0].Worker = 0
	cfg.Actors[1].Worker = 0
	cfg.Workers = []WorkerSpec{{}}
	rt, err := NewRuntime(p, cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()

	w := rt.workers[0]
	// One enter at the start, one exit at shutdown: exactly 2 crossings.
	if got := w.Context().Crossings(); got != 2 {
		t.Fatalf("co-located worker paid %d crossings, want 2", got)
	}
}

// TestAlternatingWorkerPaysTransitions is the dual: a worker alternating
// between two enclaves pays two crossings per actor switch.
func TestAlternatingWorkerPaysTransitions(t *testing.T) {
	p := zeroPlatform()
	var rounds atomic.Int64
	cfg := pingPongConfig(&rounds, 100, "e1", "e2", false)
	cfg.Actors[0].Worker = 0
	cfg.Actors[1].Worker = 0
	cfg.Workers = []WorkerSpec{{}}
	rt, err := NewRuntime(p, cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()

	w := rt.workers[0]
	// At least two crossings per completed round (e1->e2 and e2->e1).
	if got := w.Context().Crossings(); got < 200 {
		t.Fatalf("alternating worker paid %d crossings, want >= 200", got)
	}
}

func TestConfigValidation(t *testing.T) {
	body := func(*Self) {}
	base := func() Config {
		return Config{
			Workers: []WorkerSpec{{}},
			Actors:  []Spec{{Name: "a", Body: body}},
		}
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no workers", func(c *Config) { c.Workers = nil }},
		{"no actors", func(c *Config) { c.Actors = nil }},
		{"empty actor name", func(c *Config) { c.Actors[0].Name = "" }},
		{"nil body", func(c *Config) { c.Actors[0].Body = nil }},
		{"unknown enclave", func(c *Config) { c.Actors[0].Enclave = "ghost" }},
		{"bad worker index", func(c *Config) { c.Actors[0].Worker = 5 }},
		{"duplicate actors", func(c *Config) {
			c.Actors = append(c.Actors, Spec{Name: "a", Body: body})
		}},
		{"duplicate enclaves", func(c *Config) {
			c.Enclaves = []EnclaveSpec{{Name: "e"}, {Name: "e"}}
		}},
		{"empty enclave name", func(c *Config) {
			c.Enclaves = []EnclaveSpec{{Name: ""}}
		}},
		{"channel unknown endpoint", func(c *Config) {
			c.Channels = []ChannelSpec{{Name: "c", A: "a", B: "nobody"}}
		}},
		{"channel self loop", func(c *Config) {
			c.Channels = []ChannelSpec{{Name: "c", A: "a", B: "a"}}
		}},
		{"channel bad capacity", func(c *Config) {
			c.Actors = append(c.Actors, Spec{Name: "b", Body: body})
			c.Channels = []ChannelSpec{{Name: "c", A: "a", B: "b", Capacity: 3}}
		}},
		{"duplicate channels", func(c *Config) {
			c.Actors = append(c.Actors, Spec{Name: "b", Body: body})
			c.Channels = []ChannelSpec{
				{Name: "c", A: "a", B: "b"},
				{Name: "c", A: "b", B: "a"},
			}
		}},
		{"negative pool", func(c *Config) { c.PoolNodes = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := NewRuntime(zeroPlatform(), cfg); err == nil {
				t.Fatalf("invalid config accepted")
			}
		})
	}
}

func TestInitOrderingAndErrors(t *testing.T) {
	order := []string{}
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{Name: "first", Worker: 0, Body: func(*Self) {},
				Init: func(s *Self) error { order = append(order, "first"); return nil }},
			{Name: "second", Worker: 0, Body: func(*Self) {},
				Init: func(s *Self) error { order = append(order, "second"); return nil }},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	rt.Stop()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("init order = %v", order)
	}

	wantErr := errors.New("boom")
	cfg.Actors[1].Init = func(*Self) error { return wantErr }
	rt, err = NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); !errors.Is(err, wantErr) {
		t.Fatalf("Start err = %v, want wrapped boom", err)
	}
	rt.Stop()
}

func TestInitRunsInsideEnclave(t *testing.T) {
	var inside bool
	cfg := Config{
		Enclaves: []EnclaveSpec{{Name: "home"}},
		Workers:  []WorkerSpec{{}},
		Actors: []Spec{{
			Name: "a", Enclave: "home", Worker: 0, Body: func(*Self) {},
			Init: func(s *Self) error {
				inside = s.ctx.InEnclave()
				return nil
			},
		}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Stop()
	if !inside {
		t.Fatal("init ran outside the actor's enclave")
	}
}

func TestDoubleStartAndIdempotentStop(t *testing.T) {
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors:  []Spec{{Name: "idle", Worker: 0, Body: func(*Self) {}}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := rt.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	rt.Stop()
	rt.Stop() // must not panic or deadlock
	if err := rt.Start(); err == nil {
		t.Fatal("Start after Stop succeeded")
	}
}

// TestEnclaveCreationChargesEPC checks that creating an enclave pays its
// page-by-page load copy into the EPC (at least the charged spin), and
// that Stop destroys it.
func TestEnclaveCreationChargesEPC(t *testing.T) {
	// Only the cold copy costs anything: 10 pages at 1700 cycles/byte is
	// 20.5 ms at 3.4 GHz.
	p := sgx.NewPlatform(sgx.WithCostModel(&sgx.CostModel{
		FrequencyGHz: sgx.DefaultFrequencyGHz, TimeScale: 1, CopyCyclesPerByteCold: 1700,
	}))
	cfg := Config{
		Enclaves: []EnclaveSpec{{Name: "sized", SizeBytes: 10 * sgx.PageBytes}},
		Workers:  []WorkerSpec{{}},
		Actors:   []Spec{{Name: "a", Enclave: "sized", Worker: 0, Body: func(*Self) {}}},
	}
	start := time.Now()
	rt, err := NewRuntime(p, cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("NewRuntime took %v, want at least the 20 ms load copy", took)
	}
	if _, err := p.CreateEnclave("sized", 0); err == nil {
		t.Fatal("enclave missing from the platform while the runtime runs")
	}
	rt.Stop()
	if _, err := p.CreateEnclave("sized", 0); err != nil {
		t.Fatalf("enclave still on the platform after Stop: %v", err)
	}
}
