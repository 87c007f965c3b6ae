package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/trace"
)

// Worker executes a set of eactors round-robin (the paper's worker
// abstraction, Section 3.2). The paper pins each worker to a CPU; here a
// worker is a plain goroutine that the Go scheduler places, and pinning
// is not modelled. Before each body invocation the worker moves its SGX
// context to the eactor's enclave; when consecutive eactors share an
// enclave the move is free, so a worker whose eactors are confined to
// one enclave never pays a transition — the property the paper's
// deployments exploit.
type Worker struct {
	id        int
	rt        *Runtime
	ctx       *sgx.Context
	actors    []*actorInstance
	idleSleep time.Duration

	// doorbell wakes the worker from its idle sleep the moment one of
	// its eactors gets work: channel sends ring the consumer's bell, and
	// system eactors hand their Waker to I/O pumps. Without it, an idle
	// worker's sleep is at the mercy of the scheduler's poll granularity
	// (~1ms), which would put a millisecond on every message hop.
	doorbell chan struct{}

	// m is the telemetry instrument set; nil unless Config.Telemetry was
	// set.
	m *metrics

	// tr is the runtime's causal tracer; nil unless Config.Trace was
	// set. The worker clears each actor's scope before invoking it and
	// records invoke/crossing spans for traced invocations.
	tr *trace.Tracer

	// inj is the runtime's fault injector (Config.Faults); nil in
	// production. The worker consults it at the invoke site.
	inj *faults.Injector

	stop chan struct{}
	done chan struct{}
}

// Wake unblocks the worker if it is in its idle sleep; it is safe to
// call from any goroutine and never blocks.
func (w *Worker) Wake() {
	select {
	case w.doorbell <- struct{}{}:
	default:
	}
}

// ID returns the worker's index in the runtime configuration.
func (w *Worker) ID() int { return w.id }

// Context returns the worker's SGX execution context.
func (w *Worker) Context() *sgx.Context { return w.ctx }

// Actors returns the names of the eactors assigned to this worker.
func (w *Worker) Actors() []string {
	names := make([]string, len(w.actors))
	for i, a := range w.actors {
		names[i] = a.spec.Name
	}
	return names
}

// invoke runs one body, converting a panic into a parked actor: the
// paper's compartmentalisation argument (Section 2.3) is that a bug in
// one eactor/enclave must not take the rest of the application down, so
// the worker contains the blast radius and keeps scheduling its other
// eactors.
func (w *Worker) invoke(a *actorInstance) {
	defer func() {
		if r := recover(); r != nil {
			// The failure text must be in place before the flag flips,
			// so any reader that observes failed==true sees this park's
			// message.
			msg := fmt.Sprintf("%v", r)
			a.failure.Store(&msg)
			if w.m != nil {
				w.m.parks.Inc(w.id)
			}
			a.failed.Store(true)
			w.rt.actorFailed(a.spec.Name)
		}
	}()
	if w.tr != nil {
		// Fresh invocation, fresh causality: the scope only carries a
		// trace while the body that adopted it is on the stack.
		a.scope.Clear()
	}
	if w.m == nil && w.tr == nil && a.cost == nil {
		a.spec.Body(a.self)
		return
	}
	start := time.Now()
	a.spec.Body(a.self)
	elapsed := uint64(time.Since(start))
	if a.cost != nil {
		a.cost.Invocations.Add(1)
		a.cost.InvokeNs.Add(elapsed)
	}
	if w.m != nil {
		w.m.invokeNs[w.id].Observe(elapsed)
		if a.self.drainLeft == 0 {
			// The body consumed its entire RecvBatch allowance: a flooded
			// mailbox. Frequent exhaustion is the signal to add workers.
			w.m.drainExhaust.Inc(w.id)
		}
	}
	if w.tr != nil {
		if c := a.scope.Active(); c.Traced() {
			w.tr.Record(w.id, trace.Span{
				TraceID: c.TraceID, ID: w.tr.NextSpan(), Parent: c.Span,
				Kind: trace.KindInvoke, Ref: a.tag,
				Start: start.UnixNano(), Dur: int64(elapsed),
			})
		}
	}
}

// idleWait parks the worker until its doorbell rings, the idle-sleep
// timeout elapses, or shutdown is requested.
func (w *Worker) idleWait(timer *time.Timer) {
	// Clear a stale ring so the bell reflects "work arrived after the
	// last full round".
	select {
	case <-w.doorbell:
		return
	default:
	}
	if w.m != nil {
		w.m.idles.Inc(w.id)
	}
	timer.Reset(w.idleSleep)
	select {
	case <-w.doorbell:
		if w.m != nil {
			w.m.wakes.Inc(w.id)
		}
	case <-timer.C:
		return
	case <-w.stop:
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
}

func (w *Worker) run() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var spinUntil time.Time // zero while the last round made progress
	for {
		select {
		case <-w.stop:
			w.ctx.Exit()
			return
		default:
		}

		progressed := false
		for _, a := range w.actors {
			if a.failed.Load() {
				continue
			}
			pre := w.ctx.Crossings()
			if a.enclave != nil {
				if err := w.ctx.Enter(a.enclave); err != nil {
					// Configuration was validated at startup; an enter
					// failure means the enclave was destroyed underneath
					// us, so park this actor.
					continue
				}
			} else {
				w.ctx.Exit()
			}
			if delta := w.ctx.Crossings() - pre; delta != 0 && a.cost != nil {
				// The cost profile charges a transition to the actor whose
				// placement caused it.
				a.cost.Crossings.Add(delta)
			}
			if w.inj != nil {
				if act := w.inj.At(faults.SiteInvoke); act.Class == faults.Delay {
					time.Sleep(act.Delay)
				}
			}
			a.self.progressed = false
			a.self.drainLeft = drainBudget
			w.invoke(a)
			if a.self.progressed {
				progressed = true
			}
		}

		// A round without progress starts a spin of idleSpin: work that
		// arrives within it is taken without paying a wake. The budget is
		// a time because a Gosched round lasts as long as every other
		// runnable goroutine takes. The first idle round always yields:
		// parking straight from it doubled the pipelined KV tail
		// (DESIGN.md §4.2.1). Past the budget the worker parks, so idle
		// workers do not starve busy ones and Ps go idle, which is when
		// the Go scheduler polls the network.
		if progressed {
			spinUntil = time.Time{}
			continue
		}
		if now := time.Now(); spinUntil.IsZero() {
			spinUntil = now.Add(idleSpin)
		} else if !now.Before(spinUntil) {
			w.idleWait(timer)
			spinUntil = time.Time{}
			continue
		}
		runtime.Gosched()
	}
}
