package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/telemetry"
)

// TestDoorbellBurstWakeNotLost is the wake-coalescing regression test: a
// burst of sends landing while the consumer is mid-drain must not lose
// the wakeup. The consumer takes one message per invocation so every
// burst overlaps a drain; with a 2s idle backstop, a lost doorbell
// strands the tail of the burst far past the 1s deadline.
func TestDoorbellBurstWakeNotLost(t *testing.T) {
	const burst, rounds = 8, 10
	var received atomic.Int64
	cfg := Config{
		Workers:   []WorkerSpec{{}, {}},
		IdleSleep: 2 * time.Second,
		PoolNodes: 32,
		Channels:  []ChannelSpec{{Name: "link", A: "producer", B: "consumer", Capacity: 16}},
		Actors: []Spec{
			{Name: "producer", Worker: 0, Body: func(*Self) {}},
			{
				Name: "consumer", Worker: 1,
				Body: func(self *Self) {
					ch := self.MustChannel("link")
					buf := make([]byte, 16)
					if _, ok, _ := ch.Recv(buf); ok {
						received.Add(1)
						self.Progress()
					}
				},
			},
		},
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
	for r := 0; r < rounds; r++ {
		// Let the consumer drain and park between bursts.
		time.Sleep(20 * time.Millisecond)
		target := received.Load() + burst
		for i := 0; i < burst; i++ {
			for ep.Send([]byte("burst")) != nil {
				time.Sleep(time.Millisecond)
			}
		}
		deadline := time.Now().Add(time.Second)
		for received.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d/%d burst messages received after 1s — doorbell wakeup lost (idle backstop is 2s)",
					r, received.Load()-(target-burst), burst)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReportTelemetryCoverage drives a deterministic 2-enclave/3-worker
// deployment and checks that Report covers crossings, pool occupancy,
// failed actors and the telemetry-backed latency quantiles.
func TestReportTelemetryCoverage(t *testing.T) {
	const msgs = 256
	var got atomic.Int64
	type pingState struct{ sent int }
	st := &pingState{}
	cfg := Config{
		Telemetry:   true,
		Enclaves:    []EnclaveSpec{{Name: "ea"}, {Name: "eb"}},
		Workers:     []WorkerSpec{{}, {}, {}},
		PoolNodes:   32,
		NodePayload: 128,
		Channels:    []ChannelSpec{{Name: "pp", A: "ping", B: "pong", Capacity: 8}},
		Actors: []Spec{
			{
				Name: "ping", Enclave: "ea", Worker: 0, State: st,
				Body: func(self *Self) {
					s := self.State.(*pingState)
					if s.sent >= msgs {
						return
					}
					if self.MustChannel("pp").Send([]byte("payload")) == nil {
						s.sent++
						self.Progress()
					}
				},
			},
			{
				Name: "pong", Enclave: "eb", Worker: 1,
				Body: func(self *Self) {
					buf := make([]byte, 128)
					if _, ok, _ := self.MustChannel("pp").Recv(buf); ok {
						got.Add(1)
						self.Progress()
					}
				},
			},
			{Name: "crash", Worker: 2, Body: func(*Self) { panic("report coverage") }},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < msgs || len(rt.FailedActors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("workload stalled: recv=%d failed=%v", got.Load(), rt.FailedActors())
		}
		time.Sleep(time.Millisecond)
	}

	r := rt.Report()
	if len(r.Workers) != 3 {
		t.Fatalf("workers = %d", len(r.Workers))
	}
	for _, w := range r.Workers[:2] {
		if w.Invocations == 0 {
			t.Fatalf("worker %d reports zero invocations", w.ID)
		}
		if w.InvokeP50Ns == 0 || w.InvokeP99Ns < w.InvokeP50Ns {
			t.Fatalf("worker %d invoke quantiles p50=%d p99=%d", w.ID, w.InvokeP50Ns, w.InvokeP99Ns)
		}
		if w.Crossings == 0 {
			t.Fatalf("worker %d hosts an enclaved actor but reports no crossings", w.ID)
		}
	}
	if len(r.Channels) != 1 {
		t.Fatalf("channels = %+v", r.Channels)
	}
	ch := r.Channels[0]
	if ch.Stats.AToB != msgs {
		t.Fatalf("AToB = %d, want %d", ch.Stats.AToB, msgs)
	}
	// 1-in-16 sampling over 256 sends leaves ~16 observations.
	if ch.SendP50Ns == 0 || ch.SendP99Ns < ch.SendP50Ns {
		t.Fatalf("channel send quantiles p50=%d p99=%d", ch.SendP50Ns, ch.SendP99Ns)
	}
	if r.PublicPoolFree != 32 {
		t.Fatalf("PublicPoolFree = %d after full drain, want 32", r.PublicPoolFree)
	}
	if len(r.FailedActors) != 1 || r.FailedActors[0] != "crash" {
		t.Fatalf("FailedActors = %v", r.FailedActors)
	}
	if r.Platform.Crossings == 0 {
		t.Fatal("platform crossings missing")
	}

	// The panic must have produced a flight-recorder dump ending in the
	// park event — the acceptance criterion for post-mortem tracing.
	dump := rt.ActorFlightDump("crash")
	if len(dump) == 0 {
		t.Fatal("no flight dump captured for the panicked actor")
	}
	if last := dump[len(dump)-1]; last.Kind != telemetry.EvPark {
		t.Fatalf("dump ends in %v, want park:\n%s", last.Kind, telemetry.FormatDump(dump))
	}
	if rt.ActorFlightDump("ping") != nil {
		t.Fatal("healthy actor has a failure dump")
	}
	if rt.ActorFlightDump("nobody") != nil {
		t.Fatal("unknown actor has a failure dump")
	}
}

// TestTelemetryPrometheusFamilies checks the registry a runtime builds
// exposes the metric families the HTTP endpoint advertises, with the
// traffic a message moved through a channel counted.
func TestTelemetryPrometheusFamilies(t *testing.T) {
	rt, err := NewRuntime(zeroPlatform(), Config{
		Telemetry: true,
		Workers:   []WorkerSpec{{}},
		PoolNodes: 16,
		Actors: []Spec{
			{Name: "a", Worker: 0, Body: func(*Self) {}},
			{Name: "b", Worker: 0, Body: func(*Self) {}},
		},
		Channels: []ChannelSpec{{Name: "link", A: "a", B: "b", Capacity: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.actors["a"].endpoints["link"].Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rt.actors["b"].endpoints["link"].Recv(make([]byte, 16)); !ok || err != nil {
		t.Fatalf("Recv: ok=%v err=%v", ok, err)
	}

	var sb strings.Builder
	if rt.Telemetry() == nil {
		t.Fatal("enabled runtime has no registry")
	}
	rt.Telemetry().WritePrometheus(&sb)
	text := sb.String()
	for _, family := range []string{
		"eactors_worker_invocations",
		"eactors_channel_msgs_sent_total 1",
		"eactors_channel_msgs_recv_total 1",
		"eactors_sgx_crossings",
		"eactors_pool_free",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("prometheus text missing %s:\n%s", family, text)
		}
	}
}
