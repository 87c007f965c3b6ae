package chaos

import (
	"fmt"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
)

// seeds returns the seed matrix for a test: the CI defaults, or just
// CHAOS_SEED when set (the reproduction path).
func seeds() []uint64 {
	if s := SeedFromEnv(0); s != 0 {
		return []uint64{s}
	}
	return DefaultSeeds
}

// requireClasses fails the test unless the run injected at least min
// distinct fault classes — convergence is only interesting if faults
// actually fired.
func requireClasses(t *testing.T, test string, res Result, min int) {
	t.Helper()
	if len(res.ByClass) < min {
		t.Fatalf("seed %d: only %d fault classes fired (%v), want >= %d\nreproduce with: %s",
			res.Seed, len(res.ByClass), res.ByClass, min, ReproCommand(test, res.Seed))
	}
}

// TestChaosSecureSum runs the encrypted secure-sum ring under the full
// chaos schedule and asserts it converges to the exact protocol result
// despite corrupted seals, failed sends and lost doorbells.
func TestChaosSecureSum(t *testing.T) {
	for _, seed := range seeds() {
		res, err := RunSecureSum(seed, 200, false, 30*time.Second)
		if err != nil {
			t.Fatalf("%v\nreproduce with: %s", err, ReproCommand("TestChaosSecureSum", seed))
		}
		requireClasses(t, "TestChaosSecureSum", res, 3)
		t.Logf("seed %d: %d rounds, %d faults injected: %v", seed, res.Rounds, res.Injected, res.ByClass)
	}
}

// TestChaosSecureSumDynamic repeats the run in the paper's case-#2
// mode, where every party recomputes its secret each round — the
// per-tag secret update must keep retransmissions idempotent. It runs
// as many rounds as the static case, enough for all three of the ring's
// fault classes to fire at every CI seed.
func TestChaosSecureSumDynamic(t *testing.T) {
	seed := SeedFromEnv(DefaultSeeds[len(DefaultSeeds)-1])
	res, err := RunSecureSum(seed, 200, true, 30*time.Second)
	if err != nil {
		t.Fatalf("%v\nreproduce with: %s", err, ReproCommand("TestChaosSecureSumDynamic", seed))
	}
	requireClasses(t, "TestChaosSecureSumDynamic", res, 3)
	t.Logf("seed %d: %d rounds, %d faults injected: %v", seed, res.Rounds, res.Injected, res.ByClass)
}

// TestChaosXMPP runs the trusted sharded XMPP service under the chaos
// schedule and asserts every chat message is eventually delivered over
// real TCP connections.
func TestChaosXMPP(t *testing.T) {
	for _, seed := range seeds() {
		res, err := RunXMPP(seed, 12, 30*time.Second)
		if err != nil {
			t.Fatalf("%v\nreproduce with: %s", err, ReproCommand("TestChaosXMPP", seed))
		}
		requireClasses(t, "TestChaosXMPP", res, 3)
		t.Logf("seed %d: %d messages, %d faults injected: %v", seed, res.Rounds, res.Injected, res.ByClass)
	}
}

// TestChaosKV runs the trusted, encrypted KV service under the chaos
// schedule: every confirmed operation must agree with a model map, and
// the injected sync failures must actually have exercised the sharded
// store's keep-dirty-and-retry flush path.
func TestChaosKV(t *testing.T) {
	for _, seed := range seeds() {
		res, err := RunKV(seed, 60, 30*time.Second)
		if err != nil {
			t.Fatalf("%v\nreproduce with: %s", err, ReproCommand("TestChaosKV", seed))
		}
		requireClasses(t, "TestChaosKV", res, 3)
		if res.ByClass["sync-fail"] == 0 {
			t.Fatalf("seed %d: no POS sync failures injected (%v)\nreproduce with: %s",
				res.Seed, res.ByClass, ReproCommand("TestChaosKV", res.Seed))
		}
		t.Logf("seed %d: %d ops, %d faults injected: %v", seed, res.Rounds, res.Injected, res.ByClass)
	}
}

// TestChaosScheduleDeterministic pins the core reproducibility claim:
// two injectors built from the same seed produce identical per-site
// fault schedules, and a different seed produces a different one.
func TestChaosScheduleDeterministic(t *testing.T) {
	sites := []faults.Site{
		faults.SiteEnter, faults.SiteExit, faults.SiteSeal, faults.SiteOpen,
		faults.SiteSend, faults.SiteRecv, faults.SiteInvoke, faults.SitePosSync,
	}
	const n = 512
	a, b := NewInjector(42), NewInjector(42)
	other := NewInjector(43)
	differs := false
	for _, site := range sites {
		sa, sb, so := a.Schedule(site, n), b.Schedule(site, n), other.Schedule(site, n)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("site %v op %d: same seed disagrees (%v vs %v)", site, i, sa[i], sb[i])
			}
			if sa[i] != so[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatalf("seeds 42 and 43 produced identical schedules across %d ops on every site", n)
	}
}

// ReproCommand renders the command line that replays a failing run:
// same seed, same schedule, same faults.
func ReproCommand(test string, seed uint64) string {
	return fmt.Sprintf("CHAOS_SEED=%d go test -race -run %s ./internal/chaos", seed, test)
}
