package main

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/smc"
)

const (
	smcParties = 3
	// smcDim is small on purpose: from Dim 1000 on, a round is over 90 %
	// simulated-RNG spin, a constant no change can move.
	smcDim = 16
	// smcTick is how often the round counter is read. The ring runs its
	// rounds back to back with one in flight, so a tick's duration over
	// its rounds is the round latency.
	smcTick = 5 * time.Millisecond
)

// smcInstance is the EActors secure-sum ring. It has no clients: the
// first party is the closed loop, and the benchmark only watches the
// round counter and checks the sums.
type smcInstance struct {
	svc  *smc.EAService
	want []uint32
}

func startSMC(env) (instance, error) {
	// smc.Options has no trace, profile or telemetry switch, so the
	// traced run of this workload runs the same deployment.
	svc, err := smc.StartEA(smc.Options{Parties: smcParties, Dim: smcDim})
	if err != nil {
		return nil, err
	}
	// Static secrets: every round must produce the same sum.
	return &smcInstance{svc: svc, want: smc.ExpectedSum(smcParties, smcDim, 1, false)}, nil
}

func (in *smcInstance) clients() int { return 1 }

func (in *smcInstance) layers() layers { return layers{rt: in.svc.Runtime()} }

func (in *smcInstance) drive(_ int, stop *atomic.Bool, r *recorder) {
	prev, prevT := in.svc.Rounds(), time.Now()
	for !stop.Load() {
		time.Sleep(smcTick)
		rounds, now := in.svc.Rounds(), time.Now()
		if rounds == prev {
			continue // a stalled tick lengthens the next sample
		}
		n := rounds - prev
		if !slices.Equal(in.svc.LastSum(), in.want) {
			r.fail()
		}
		r.doneN(n, now.Sub(prevT)/time.Duration(n))
		prev, prevT = rounds, now
	}
}

func (in *smcInstance) verify() (attempted, failed uint64) {
	if in.svc.Rounds() > 0 && !slices.Equal(in.svc.LastSum(), in.want) {
		return 1, 1
	}
	return 1, 0
}

func (in *smcInstance) stop() { in.svc.Stop() }
