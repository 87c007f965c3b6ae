package faults

import (
	"sync"
	"testing"
	"time"
)

func chaosRules() []Rule {
	return []Rule{
		{Site: SiteSeal, Class: SealCorrupt, Rate: 0.05},
		{Site: SiteSend, Class: SendFail, Rate: 0.1},
		{Site: SiteSend, Class: DoorbellDrop, Rate: 0.05},
		{Site: SiteEnter, Class: Delay, Rate: 0.02, Delay: 10 * time.Microsecond},
		{Site: SiteExit, Class: Delay, Rate: 0.01, Delay: 10 * time.Microsecond},
	}
}

// TestScheduleReproducible: the same seed yields the identical per-site
// schedule across two independent injectors — the property the chaos
// suite's seed-reproduction instructions rely on.
func TestScheduleReproducible(t *testing.T) {
	const n = 4096
	a := New(Config{Seed: 42, Rules: chaosRules()})
	b := New(Config{Seed: 42, Rules: chaosRules()})
	for site := Site(0); site < numSites; site++ {
		sa, sb := a.Schedule(site, n), b.Schedule(site, n)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("site %d op %d: %s vs %s", site, i, sa[i], sb[i])
			}
		}
	}
	// And At (the consuming API) follows the same schedule.
	want := a.Schedule(SiteSend, n)
	got := make([]Class, n)
	for i := range got {
		got[i] = b.At(SiteSend).Class
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("At diverged from Schedule at op %d: %s vs %s", i, got[i], want[i])
		}
	}
}

// TestSeedsDiffer: different seeds produce different schedules.
func TestSeedsDiffer(t *testing.T) {
	const n = 4096
	a := New(Config{Seed: 1, Rules: chaosRules()})
	b := New(Config{Seed: 2, Rules: chaosRules()})
	same := 0
	sa, sb := a.Schedule(SiteSend, n), b.Schedule(SiteSend, n)
	for i := range sa {
		if sa[i] == sb[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 1 and 2 produced identical send schedules")
	}
}

// TestRatesApproximate: a 10% rule fires roughly 10% of the time.
func TestRatesApproximate(t *testing.T) {
	inj := New(Config{Seed: 7, Rules: []Rule{{Site: SiteSend, Class: SendFail, Rate: 0.1}}})
	const n = 100000
	fired := 0
	for i := 0; i < n; i++ {
		if inj.At(SiteSend).Class == SendFail {
			fired++
		}
	}
	if fired < n/20 || fired > n/5 {
		t.Fatalf("10%% rule fired %d/%d times", fired, n)
	}
	if inj.Injected() != uint64(fired) {
		t.Fatalf("Injected = %d, want %d", inj.Injected(), fired)
	}
	if inj.InjectedByClass()["send-fail"] != uint64(fired) {
		t.Fatalf("InjectedByClass = %v", inj.InjectedByClass())
	}
	if inj.Ops(SiteSend) != n {
		t.Fatalf("Ops = %d", inj.Ops(SiteSend))
	}
}

// TestNilInjector: the nil injector is a total no-op.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if a := inj.At(SiteSend); a.Class != None {
		t.Fatalf("nil At = %+v", a)
	}
	if inj.Injected() != 0 || inj.Ops(SiteSend) != 0 {
		t.Fatal("nil injector leaked state")
	}
	if inj.String() != "faults: off" {
		t.Fatalf("nil String = %q", inj.String())
	}
}

// TestInjectedCountsEveryFault: every injection is counted, in total and
// under its class (eactors_faults_injected reads the total).
func TestInjectedCountsEveryFault(t *testing.T) {
	inj := New(Config{Seed: 3, Rules: []Rule{{Site: SiteSeal, Class: SealCorrupt, Rate: 1}}})
	for i := 0; i < 10; i++ {
		if inj.At(SiteSeal).Class != SealCorrupt {
			t.Fatal("rate-1 rule did not fire")
		}
	}
	if got := inj.Injected(); got != 10 {
		t.Fatalf("Injected = %d, want 10", got)
	}
	if got := inj.InjectedByClass()[SealCorrupt.String()]; got != 10 {
		t.Fatalf("InjectedByClass = %v, want 10 %s", inj.InjectedByClass(), SealCorrupt)
	}
}

// TestConcurrentAt: At is race-clean and never loses operations.
func TestConcurrentAt(t *testing.T) {
	inj := New(Config{Seed: 9, Rules: chaosRules()})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				inj.At(SiteSend)
			}
		}()
	}
	wg.Wait()
	if inj.Ops(SiteSend) != workers*per {
		t.Fatalf("Ops = %d, want %d", inj.Ops(SiteSend), workers*per)
	}
}

// Ops returns how many operations site has evaluated.
func (inj *Injector) Ops(site Site) uint64 {
	if inj == nil || site >= numSites {
		return 0
	}
	return inj.seq[site].n.Load()
}
