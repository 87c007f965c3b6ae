package core

import (
	"fmt"
	"sort"
	"time"
)

// Restart backoff defaults for RestartPolicy fields left zero.
const (
	DefaultRestartBackoff    = time.Millisecond
	DefaultRestartMaxBackoff = 500 * time.Millisecond
)

// RestartPolicy decides what happens to an eactor after its body
// panics. The paper's runtime parks a faulty eactor forever (Section
// 2.3's blast-radius containment); a policy with OnPanic set trades a
// little of that isolation for availability: the owning worker restarts
// the actor after a capped exponential backoff, on the same worker and
// in the same enclave, with its private state (Spec.State) as the body
// left it.
//
// Restarts are performed by the worker that owns the actor — the only
// thread allowed to touch its endpoints — so no cross-thread handshake
// is needed; Runtime.Supervision observes them and RestartActor is the
// manual override.
type RestartPolicy struct {
	// OnPanic enables supervised restarts. False (the zero value) keeps
	// the permanent park.
	OnPanic bool

	// MaxRestarts caps the number of restarts; once exceeded the actor
	// parks permanently. 0 means unlimited.
	MaxRestarts int

	// Backoff is the delay before the first restart; each subsequent
	// restart doubles it up to MaxBackoff. Zero values use
	// DefaultRestartBackoff / DefaultRestartMaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// FlushMailbox drops the actor's pending inbound messages at
	// restart (nodes return to their pool). Default keeps the backlog:
	// the restarted body resumes consuming where the panicked one
	// stopped.
	FlushMailbox bool

	// Reinit re-runs Spec.Init at restart (inside the actor's enclave).
	// An Init error counts as another failure and re-parks the actor
	// with the next backoff step.
	Reinit bool
}

// backoff returns the delay before restart number restarts+1.
func (p RestartPolicy) backoff(restarts uint64) time.Duration {
	base, cap := p.Backoff, p.MaxBackoff
	if base <= 0 {
		base = DefaultRestartBackoff
	}
	if cap <= 0 {
		cap = DefaultRestartMaxBackoff
	}
	d := base
	for i := uint64(0); i < restarts && d < cap; i++ {
		d <<= 1
	}
	if d > cap {
		d = cap
	}
	return d
}

// exhausted reports whether the policy allows no further restart after
// `restarts` completed ones.
func (p RestartPolicy) exhausted(restarts uint64) bool {
	if !p.OnPanic {
		return true
	}
	return p.MaxRestarts > 0 && restarts >= uint64(p.MaxRestarts)
}

// ActorSupervision is one actor's supervision snapshot.
type ActorSupervision struct {
	Name     string
	Parked   bool
	Failure  string // last panic value ("" if never failed)
	Restarts uint64
	// NextRestart is the time until the pending restart fires
	// (negative-clamped to 0); false when none is scheduled.
	NextRestart time.Duration
	RestartDue  bool
	Policy      RestartPolicy
}

// Supervision returns the supervision state of every actor, sorted by
// name. Parked actors with OnPanic policies also report their pending
// restart deadline.
func (rt *Runtime) Supervision() []ActorSupervision {
	out := make([]ActorSupervision, 0, len(rt.actors))
	for name, inst := range rt.actors {
		s := ActorSupervision{
			Name:     name,
			Parked:   inst.failed.Load(),
			Restarts: inst.restarts.Load(),
			Policy:   inst.spec.Restart,
		}
		if s.Parked {
			s.Failure = inst.failureText()
			if due := inst.restartAt.Load(); due != 0 {
				s.RestartDue = true
				if d := time.Until(time.Unix(0, due)); d > 0 {
					s.NextRestart = d
				}
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ActorRestarts returns how many times the named actor was restarted.
func (rt *Runtime) ActorRestarts(name string) uint64 {
	inst, ok := rt.actors[name]
	if !ok {
		return 0
	}
	return inst.restarts.Load()
}

// RestartActor forces an immediate restart of a parked actor,
// bypassing its policy's backoff (and even a zero policy — the manual
// override exists precisely for actors configured to park forever).
// The restart itself is still performed by the owning worker on its
// next scheduling round.
func (rt *Runtime) RestartActor(name string) error {
	inst, ok := rt.actors[name]
	if !ok {
		return fmt.Errorf("core: unknown actor %q", name)
	}
	if !inst.failed.Load() {
		return fmt.Errorf("core: actor %q is not parked", name)
	}
	// Target the park we just observed (or a newer one): the worker
	// honours the override only while the generations still match, so
	// if it restarts the actor concurrently the force expires instead
	// of lingering on a healthy actor and bypassing its policy on the
	// next park.
	inst.forceGen.Store(inst.parkGen.Load())
	inst.worker.Wake()
	return nil
}
