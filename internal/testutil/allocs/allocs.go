// Package allocs holds what the allocation tests share: the switch that
// skips them under the race detector, whose instrumentation makes
// allocation counts meaningless, and a way to run measured code inside
// an actor body, the only place a real *core.Self exists.
//
// Every test built on it has "Allocat" in its name, so
// `go test -run Allocat ./internal/...` runs the set without -race.
package allocs

import (
	"sync"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

// SkipUnderRace skips t when the race detector is on. Call it first:
// skipping from inside an actor body would end the worker goroutine,
// not the test.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if Race {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// InActor starts a runtime for cfg on a zero-cost platform, runs fn
// once as the body of the actor named actor (replacing its Body), and
// stops the runtime. fn runs on a worker goroutine, so it reports with
// t.Errorf, never t.Fatal.
func InActor(t testing.TB, cfg core.Config, actor string, fn func(self *core.Self)) {
	t.Helper()
	done := make(chan struct{})
	found := false
	for i := range cfg.Actors {
		if cfg.Actors[i].Name != actor {
			continue
		}
		found = true
		var once sync.Once
		cfg.Actors[i].Body = func(self *core.Self) {
			once.Do(func() {
				defer close(done)
				fn(self)
			})
		}
	}
	if !found {
		t.Fatalf("allocs: no actor %q in the config", actor)
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel())), cfg)
	if err != nil {
		t.Fatalf("allocs: NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("allocs: Start: %v", err)
	}
	defer rt.Stop()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("allocs: %s's body never ran", actor)
	}
}
