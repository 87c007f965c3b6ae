package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/mem"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
)

// Runtime realises a Config: it creates the enclaves, preallocates the
// node pool, wires the channels (establishing attestation-derived keys
// for cross-enclave ones), runs the eactor constructors, and drives the
// workers (Section 3.2: "When the application is started, the generated
// EActors runtime creates the enclaves, allocates the private state,
// calls the constructors of the actors and creates as well as starts the
// workers").
type Runtime struct {
	platform *sgx.Platform
	arena    *mem.Arena
	pool     *mem.Pool

	enclaves map[string]*sgx.Enclave
	actors   map[string]*actorInstance
	channels map[string]*Channel
	workers  []*Worker

	// privatePools holds the per-enclave pools of EnclaveSpecs that
	// requested one; same-enclave channels draw from them.
	privatePools map[string]*mem.Pool

	// tel and m are the observability subsystem; both nil unless
	// Config.Telemetry was set.
	tel *telemetry.Registry
	m   *metrics

	// tr is the causal tracer; nil unless Config.Trace was set.
	tr *trace.Tracer

	// prof is the per-actor cost collector; nil unless Config.Profile
	// was set.
	prof *profile.Collector

	// flt is the fault injector (Config.Faults); nil in production.
	flt *faults.Injector

	mu      sync.Mutex
	started bool
	stopped bool

	stopOnce sync.Once
	stopCh   chan struct{}

	failedMu sync.Mutex
	failed   []string
}

// actorFailed records a body panic (called by workers).
func (rt *Runtime) actorFailed(name string) {
	rt.failedMu.Lock()
	rt.failed = append(rt.failed, name)
	rt.failedMu.Unlock()
}

// FailedActors lists eactors parked after a body panic, with their
// panic values available via ActorFailure. A parked actor stays parked
// for the runtime's lifetime.
func (rt *Runtime) FailedActors() []string {
	rt.failedMu.Lock()
	defer rt.failedMu.Unlock()
	return append([]string(nil), rt.failed...)
}

// ActorFailure returns the recorded panic value of a failed actor. The
// worker stores the value before it sets the failed flag.
func (rt *Runtime) ActorFailure(name string) (string, bool) {
	inst, ok := rt.actors[name]
	if !ok || !inst.failed.Load() {
		return "", false
	}
	return *inst.failure.Load(), true
}

// NewRuntime validates cfg and builds a runtime on the given platform.
// A nil platform gets a fresh one with the default (paper-calibrated)
// cost model.
func NewRuntime(platform *sgx.Platform, cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if platform == nil {
		platform = sgx.NewPlatform()
	}

	poolNodes := cfg.PoolNodes
	if poolNodes == 0 {
		poolNodes = DefaultPoolNodes
	}
	nodePayload := cfg.NodePayload
	if nodePayload == 0 {
		nodePayload = DefaultNodePayload
	}
	arena, err := mem.NewArena(poolNodes, nodePayload)
	if err != nil {
		return nil, err
	}

	rt := &Runtime{
		platform: platform,
		arena:    arena,
		pool:     mem.NewPool(arena),
		enclaves: make(map[string]*sgx.Enclave, len(cfg.Enclaves)),
		actors:   make(map[string]*actorInstance, len(cfg.Actors)),
		channels: make(map[string]*Channel, len(cfg.Channels)),
		stopCh:   make(chan struct{}),
	}
	if cfg.Telemetry {
		rt.tel = telemetry.New(len(cfg.Workers))
		rt.m = newMetrics(rt.tel, len(cfg.Workers))
		platform.AttachTelemetry(rt.tel)
	}
	if cfg.Trace {
		rt.tr = trace.New(len(cfg.Workers), trace.DefaultBufferSpans, cfg.TraceSampleEvery)
	}
	if cfg.Profile {
		rt.prof = profile.NewCollector()
	}
	if cfg.Faults != nil {
		rt.flt = cfg.Faults
		platform.AttachFaults(cfg.Faults)
	}

	// Enclaves, plus their private pools.
	rt.privatePools = make(map[string]*mem.Pool)
	for _, es := range cfg.Enclaves {
		size := es.SizeBytes
		if size == 0 {
			size = DefaultEnclaveSize
		}
		e, err := platform.CreateEnclave(es.Name, size)
		if err != nil {
			rt.teardownEnclaves()
			return nil, err
		}
		rt.enclaves[es.Name] = e
		rt.prof.RegisterEnclave(es.Name)
		if es.PrivatePoolNodes > 0 {
			privArena, err := mem.NewArena(es.PrivatePoolNodes, nodePayload)
			if err != nil {
				rt.teardownEnclaves()
				return nil, err
			}
			rt.privatePools[es.Name] = mem.NewPool(privArena)
		}
	}

	// Actor instances. Tags are small dense ids trace spans and the cost
	// profile use in place of names.
	for tag, spec := range cfg.Actors {
		inst := &actorInstance{
			spec:      spec,
			tag:       uint32(tag),
			endpoints: make(map[string]*Endpoint),
		}
		if spec.Enclave != "" {
			inst.enclave = rt.enclaves[spec.Enclave]
		}
		rt.actors[spec.Name] = inst
		rt.tr.NameActor(inst.tag, spec.Name)
		inst.cost = rt.prof.RegisterActor(inst.tag, spec.Name, spec.Enclave, spec.Worker)
	}

	// Workers, with their actors in declaration order so that co-located
	// eactors run back-to-back without transitions. Workers are built
	// before channels because every endpoint captures its peer's worker
	// doorbell.
	rt.workers = make([]*Worker, len(cfg.Workers))
	for i := range cfg.Workers {
		rt.workers[i] = &Worker{
			id:        i,
			rt:        rt,
			ctx:       sgx.NewContext(platform),
			idleSleep: cfg.IdleSleep,
			doorbell:  make(chan struct{}, 1),
			stop:      rt.stopCh,
			done:      make(chan struct{}),
			m:         rt.m,
			tr:        rt.tr,
			inj:       rt.flt,
		}
		if rt.workers[i].idleSleep == 0 {
			rt.workers[i].idleSleep = DefaultIdleSleep
		}
	}
	for _, spec := range cfg.Actors {
		w := rt.workers[spec.Worker]
		inst := rt.actors[spec.Name]
		inst.worker = w
		inst.self = &Self{inst: inst, rt: rt, ctx: w.ctx, State: spec.State}
		w.actors = append(w.actors, inst)
	}

	// Channels.
	for _, cs := range cfg.Channels {
		if err := rt.buildChannel(cs); err != nil {
			rt.teardownEnclaves()
			return nil, err
		}
	}

	if rt.tel != nil {
		rt.registerRuntimeFuncs()
	}
	return rt, nil
}

// buildChannel creates the mboxes and, for cross-enclave non-plaintext
// channels, performs the local-attestation key agreement and installs a
// per-direction cipher on each endpoint.
func (rt *Runtime) buildChannel(cs ChannelSpec) error {
	capacity := cs.Capacity
	if capacity == 0 {
		capacity = DefaultMboxCapacity
	}
	ab, err := mem.NewMbox(capacity)
	if err != nil {
		return fmt.Errorf("core: channel %q: %w", cs.Name, err)
	}
	ba, err := mem.NewMbox(capacity)
	if err != nil {
		return fmt.Errorf("core: channel %q: %w", cs.Name, err)
	}

	instA := rt.actors[cs.A]
	instB := rt.actors[cs.B]
	encrypted := !cs.Plaintext && crossesEnclaves(instA, instB)

	// Same-enclave channels draw from that enclave's private pool when
	// one was configured; everything else uses the shared public pool.
	pool := rt.pool
	if instA.enclave != nil && instA.enclave == instB.enclave {
		if private, ok := rt.privatePools[instA.spec.Enclave]; ok {
			pool = private
		}
	}
	ch := &Channel{name: cs.Name, a: cs.A, b: cs.B, encrypted: encrypted, ab: ab, ba: ba, tag: uint32(len(rt.channels))}
	epA := &Endpoint{ch: ch, out: ab, in: ba, pool: pool, peerWake: instB.worker.Wake, inj: rt.flt}
	epB := &Endpoint{ch: ch, out: ba, in: ab, pool: pool, peerWake: instA.worker.Wake, inj: rt.flt}
	if rt.tr != nil {
		rt.tr.NameChannel(ch.tag, cs.Name)
		epA.tr, epA.scope, epA.owner = rt.tr, &instA.scope, instA.spec.Worker
		epB.tr, epB.scope, epB.owner = rt.tr, &instB.scope, instB.spec.Worker
	}
	if rt.prof != nil {
		// Each direction gets its own communication-matrix edge; dwell
		// spans recorded by a receiving worker for this channel resolve
		// to the receiving actor.
		epA.pc, epA.pcEdge = instA.cost, rt.prof.RegisterEdge(instA.tag, instB.tag, cs.Name, epA.Sent)
		epB.pc, epB.pcEdge = instB.cost, rt.prof.RegisterEdge(instB.tag, instA.tag, cs.Name, epB.Sent)
		rt.prof.RegisterDwell(ch.tag, instB.spec.Worker, instB.tag) // A→B messages dwell at B
		rt.prof.RegisterDwell(ch.tag, instA.spec.Worker, instA.tag) // B→A messages dwell at A
	}
	if rt.m != nil {
		// The sampled send-latency histogram is shared per channel.
		sendNs := rt.tel.Histogram(
			fmt.Sprintf("eactors_channel_send_ns{channel=%q}", cs.Name),
			"send operation latency, sampled 1/16", "ns")
		epA.m, epA.sendNs = rt.m, sendNs
		epB.m, epB.sendNs = rt.m, sendNs
	}

	if encrypted {
		key, err := rt.channelKey(instA, instB)
		if err != nil {
			return fmt.Errorf("core: channel %q: %w", cs.Name, err)
		}
		cipherA, err := ecrypto.NewCipher(key, 0)
		if err != nil {
			return fmt.Errorf("core: channel %q: %w", cs.Name, err)
		}
		cipherB, err := ecrypto.NewCipher(key, 1)
		if err != nil {
			return fmt.Errorf("core: channel %q: %w", cs.Name, err)
		}
		epA.cipher = cipherA
		epB.cipher = cipherB
	}

	ch.epA, ch.epB = epA, epB
	instA.endpoints[cs.Name] = epA
	instB.endpoints[cs.Name] = epB
	rt.channels[cs.Name] = ch
	if rt.tel != nil {
		rt.registerChannelFuncs(ch)
	}
	return nil
}

// crossesEnclaves reports whether two eactors live in different trust
// domains (including enclave vs untrusted).
func crossesEnclaves(a, b *actorInstance) bool {
	return a.enclave != b.enclave
}

// channelKey derives the shared key for an encrypted channel. Between
// two enclaves it runs the local-attestation handshake; when one side is
// untrusted (an uncommon but legal configuration) the enclave side
// simply generates a key — confidentiality against the runtime is then
// not provided, matching the paper's trust model for such links.
func (rt *Runtime) channelKey(a, b *actorInstance) ([ecrypto.KeySize]byte, error) {
	switch {
	case a.enclave != nil && b.enclave != nil:
		return sgx.EstablishSessionKey(a.enclave, b.enclave)
	case a.enclave != nil:
		return oneSidedKey(a.enclave), nil
	case b.enclave != nil:
		return oneSidedKey(b.enclave), nil
	default:
		return [ecrypto.KeySize]byte{}, errors.New("core: encrypted channel between two untrusted actors")
	}
}

func oneSidedKey(e *sgx.Enclave) [ecrypto.KeySize]byte {
	var key [ecrypto.KeySize]byte
	e.ReadRand(key[:])
	return key
}

// Platform returns the underlying SGX platform (for stats and enclaves).
func (rt *Runtime) Platform() *sgx.Platform { return rt.platform }

// Pool returns the shared public node pool.
func (rt *Runtime) Pool() *mem.Pool { return rt.pool }

// PrivatePool returns the private pool of an enclave, if configured.
func (rt *Runtime) PrivatePool(enclave string) (*mem.Pool, bool) {
	p, ok := rt.privatePools[enclave]
	return p, ok
}

// ChannelByName returns a configured channel.
func (rt *Runtime) ChannelByName(name string) (*Channel, bool) {
	ch, ok := rt.channels[name]
	return ch, ok
}

// EndpointForTest returns an actor's endpoint on a channel. Endpoints
// are owned by their actor's worker; driving one from another goroutine
// is only safe when that actor's body never touches it — test harnesses
// and protocol drivers use this, applications should not.
func (rt *Runtime) EndpointForTest(actor, channel string) (*Endpoint, error) {
	inst, ok := rt.actors[actor]
	if !ok {
		return nil, fmt.Errorf("core: unknown actor %q", actor)
	}
	ep, ok := inst.endpoints[channel]
	if !ok {
		return nil, fmt.Errorf("core: actor %q has no endpoint on %q", actor, channel)
	}
	return ep, nil
}

// Tracer returns the causal tracer, or nil (a valid no-op receiver)
// when Config.Trace is off.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tr }

// ScopeForTest returns an actor's trace scope so external drivers (the
// same test harnesses EndpointForTest serves) can root and adopt trace
// contexts on behalf of an idle actor. The scope is atomic, so this is
// race-clean even against the owning worker.
func (rt *Runtime) ScopeForTest(actor string) (*trace.Scope, error) {
	inst, ok := rt.actors[actor]
	if !ok {
		return nil, fmt.Errorf("core: unknown actor %q", actor)
	}
	return &inst.scope, nil
}

// Start runs the eactor constructors (inside their enclaves) and starts
// the workers. It may be called once.
func (rt *Runtime) Start() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return errors.New("core: runtime already started")
	}
	if rt.stopped {
		return errors.New("core: runtime already stopped")
	}

	// Constructors run sequentially on an init context, entering each
	// actor's enclave like the generated runtime of the paper does.
	initCtx := sgx.NewContext(rt.platform)
	for _, w := range rt.workers {
		for _, inst := range w.actors {
			if inst.spec.Init == nil {
				continue
			}
			if inst.enclave != nil {
				if err := initCtx.Enter(inst.enclave); err != nil {
					return err
				}
			} else {
				initCtx.Exit()
			}
			// Constructors share the worker's context view for channel
			// setup; swap in the init context for the duration.
			inst.self.ctx = initCtx
			err := inst.spec.Init(inst.self)
			inst.self.ctx = w.ctx
			if err != nil {
				initCtx.Exit()
				return fmt.Errorf("core: init of actor %q: %w", inst.spec.Name, err)
			}
		}
	}
	initCtx.Exit()

	rt.started = true
	for _, w := range rt.workers {
		go w.run()
	}
	return nil
}

func (rt *Runtime) requestStop() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
}

// Stop signals all workers, waits for them to drain, and destroys the
// enclaves. It is idempotent.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	started := rt.started
	rt.stopped = true
	rt.mu.Unlock()

	rt.requestStop()
	if started {
		for _, w := range rt.workers {
			<-w.done
		}
	}
	rt.teardownEnclaves()
}

// Wait blocks until the runtime has been asked to stop (by Stop or by an
// eactor calling Self.StopRuntime) and all workers have exited.
func (rt *Runtime) Wait() {
	<-rt.stopCh
	rt.mu.Lock()
	started := rt.started
	rt.mu.Unlock()
	if started {
		for _, w := range rt.workers {
			<-w.done
		}
	}
}

func (rt *Runtime) teardownEnclaves() {
	for name, e := range rt.enclaves {
		rt.platform.DestroyEnclave(e)
		delete(rt.enclaves, name)
	}
}
