// Package core implements the EActors programming model and runtime
// (Sections 3.1-3.3 of the paper): eactors with body and constructor
// functions, workers that execute them round-robin, and uniform
// communication channels that transparently encrypt messages when the
// two endpoints live in different enclaves.
//
// The defining property, inherited from the paper, is that an eactor's
// code never references its placement: the Config (the paper's
// configuration file) decides which enclave — if any — hosts each eactor
// and which worker thread runs it, so trusted execution is a deployment
// decision rather than a code-structure decision.
package core

import (
	"fmt"
	"sync/atomic"

	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/trace"
)

// Body is an eactor body function: invoked repeatedly by the runtime, it
// must poll its channels, do a bounded amount of work and return without
// blocking (Listing 1 of the paper).
type Body func(self *Self)

// Init is an eactor constructor: it runs once at startup to connect
// channels and initialise private state.
type Init func(self *Self) error

// Spec declares one eactor: its code (Body/Init) and its deployment
// (Enclave, Worker). Code and deployment are deliberately independent.
type Spec struct {
	// Name identifies the eactor; must be unique within a Config.
	Name string

	// Enclave names the hosting enclave from Config.Enclaves, or "" to
	// run untrusted.
	Enclave string

	// Worker is the index into Config.Workers of the executing worker.
	Worker int

	// Init is the optional constructor.
	Init Init

	// Body is the mandatory body function.
	Body Body

	// State is the eactor's initial private state, exposed as
	// Self.State.
	State any
}

// actorInstance binds a Spec to its resolved runtime resources.
type actorInstance struct {
	spec      Spec
	tag       uint32       // dense id for trace spans and cost cells
	enclave   *sgx.Enclave // nil when untrusted
	self      *Self
	worker    *Worker
	endpoints map[string]*Endpoint

	// cost is the actor's cost-accounting cell; nil unless
	// Config.Profile was set.
	cost *profile.ActorCell

	// failed parks the actor for good after a body panic (blast-radius
	// containment); failure records the panic value. It is written by
	// the worker before failed flips and read by other goroutines after
	// it, so it is an atomic pointer.
	failed  atomic.Bool
	failure atomic.Pointer[string]

	// scope is the actor's active trace context (zero value when tracing
	// is disabled): cleared by the worker before each invocation, adopted
	// by traced receives, read by sends.
	scope trace.Scope
}

// failureText returns the last recorded panic value ("" if the actor
// never failed). Safe from any goroutine.
func (a *actorInstance) failureText() string {
	if s := a.failure.Load(); s != nil {
		return *s
	}
	return ""
}

// Self is the handle passed to an eactor's Init and Body; it provides
// access to the eactor's channels, private state and execution context.
// A Self is owned by its worker thread and must not escape to other
// goroutines.
type Self struct {
	inst       *actorInstance
	rt         *Runtime
	ctx        *sgx.Context
	progressed bool
	stopped    bool
	drainLeft  int // remaining Self.RecvBatch allowance this invocation

	// State is the eactor's private state (Spec.State).
	State any
}

// Name returns the eactor's configured name.
func (s *Self) Name() string { return s.inst.spec.Name }

// Runtime returns the owning runtime.
func (s *Self) Runtime() *Runtime { return s.rt }

// Enclave returns the hosting enclave, or nil when running untrusted.
func (s *Self) Enclave() *sgx.Enclave { return s.inst.enclave }

// Context returns the worker's SGX execution context. Bodies use it for
// ECalls/OCalls or SDK-mutex interaction when they must.
func (s *Self) Context() *sgx.Context { return s.ctx }

// Channel returns the endpoint of the named channel that belongs to this
// eactor. It corresponds to the connect() call of the paper's
// constructor phase; endpoints are created by the runtime from the
// Config and looked up by name.
func (s *Self) Channel(name string) (*Endpoint, error) {
	ep, ok := s.inst.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("core: actor %q has no endpoint on channel %q", s.Name(), name)
	}
	return ep, nil
}

// MustChannel is Channel for constructor use, where a missing channel is
// a configuration bug.
func (s *Self) MustChannel(name string) *Endpoint {
	ep, err := s.Channel(name)
	if err != nil {
		panic(err)
	}
	return ep
}

// Progress records that the body did useful work this invocation; the
// worker uses it to back off when all its eactors are idle.
func (s *Self) Progress() { s.progressed = true }

// DrainBudget returns how many more messages this invocation may
// consume through RecvBatch before the worker moves on to its next
// eactor (256 messages, reset every invocation).
func (s *Self) DrainBudget() int { return s.drainLeft }

// RecvBatch is the budgeted batch receive bodies should use on hot
// channels: it drains up to min(len(bufs), len(lens), remaining drain
// budget) messages from ep in one pass, records progress, and deducts
// the count from the invocation's budget — so a flooded eactor yields
// its worker to siblings instead of draining forever. Message i lands
// in bufs[i] with length lens[i]; error semantics are those of
// Endpoint.RecvBatch. When the budget is exhausted it receives nothing;
// the worker will be back, and the inbound mbox keeps the backlog.
func (s *Self) RecvBatch(ep *Endpoint, bufs [][]byte, lens []int) (int, error) {
	want := len(bufs)
	if len(lens) < want {
		want = len(lens)
	}
	if want > s.drainLeft {
		want = s.drainLeft
	}
	if want == 0 {
		return 0, nil
	}
	n, err := ep.RecvBatch(bufs[:want], lens[:want])
	if n > 0 {
		s.drainLeft -= n
		s.progressed = true
	}
	return n, err
}

// Flush sends stage's frames to ep (SendStage.Flush) and records
// progress when any went. The frames a full channel refuses stay
// staged for the next Flush, so a body never waits on a mailbox.
func (s *Self) Flush(stage *SendStage, ep *Endpoint) {
	if n, _ := stage.Flush(ep); n > 0 {
		s.progressed = true
	}
}

// Tracer returns the runtime's causal tracer (nil — a valid no-op
// receiver — when Config.Trace is off). Bodies use it with TraceScope
// to record application-level spans (POS access, routing) and system
// eactors use MaybeRoot to start traces at ingress.
func (s *Self) Tracer() *trace.Tracer { return s.rt.tr }

// TraceScope returns the eactor's active trace scope. Always non-nil;
// reads are untraced whenever tracing is off or the current invocation
// handles no sampled message.
func (s *Self) TraceScope() *trace.Scope { return &s.inst.scope }

// WorkerID returns the index of the worker executing this eactor, used
// to attribute trace spans to the recording worker's ring.
func (s *Self) WorkerID() int { return s.inst.worker.id }

// Waker returns a function that wakes this eactor's worker from its
// idle sleep. It is safe to call from any goroutine; system eactors
// hand it to their I/O pumps so inbound data is processed immediately
// rather than on the next poll.
func (s *Self) Waker() func() { return s.inst.worker.Wake }

// StopRuntime requests an asynchronous shutdown of the whole runtime.
// Bodies call it when the application's work is done.
func (s *Self) StopRuntime() {
	if !s.stopped {
		s.stopped = true
		s.rt.requestStop()
	}
}
