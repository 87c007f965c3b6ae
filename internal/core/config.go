package core

import (
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
)

// Defaults for Config fields left zero.
const (
	DefaultPoolNodes    = 4096
	DefaultNodePayload  = 2048
	DefaultMboxCapacity = 1024
	// DefaultIdleSleep is only a backstop: every message path rings the
	// consumer worker's doorbell, so idle workers can sleep long. The
	// timeout bounds how late a body that acts on the clock alone (a
	// periodic flush) runs, and recovers a doorbell the fault injector
	// dropped.
	DefaultIdleSleep = 10 * time.Millisecond
)

// idleSpin is how long an idle worker keeps polling before it parks on
// its doorbell; with the round that overshoots it, about one core.wake_us.
const idleSpin = 2500 * time.Nanosecond

// drainBudget bounds how many messages one body invocation may consume
// through Self.RecvBatch. The budget is what lets bodies drain
// aggressively (the batch fast path) without letting one flooded eactor
// starve its worker siblings: the worker resets it before every
// invocation, so a body that exhausts it simply resumes on its next
// round-robin turn.
const drainBudget = 256

// EnclaveSpec declares one enclave of the deployment.
type EnclaveSpec struct {
	// Name is the enclave identity referenced by Spec.Enclave.
	Name string
	// SizeBytes is the initial code+data footprint charged to the EPC at
	// creation. Zero uses a small default (the paper reports ~500 KiB
	// per XMPP enclave, Section 6.1).
	SizeBytes int
	// PrivatePoolNodes, when positive, preallocates a private node pool
	// inside this enclave (Section 3.3: "the framework preallocates
	// private and public pools at system start"). Channels whose two
	// endpoints both live in this enclave draw nodes from the private
	// pool — their messages then never leave EPC-accounted memory — all
	// other channels use the shared public pool.
	PrivatePoolNodes int
}

// DefaultEnclaveSize matches the paper's reported per-enclave footprint.
const DefaultEnclaveSize = 500 * 1024

// WorkerSpec declares one worker. It has no settings: a worker is a
// goroutine, and the Go scheduler decides where it runs.
type WorkerSpec struct{}

// ChannelSpec declares a bidirectional channel between two eactors.
type ChannelSpec struct {
	// Name is the channel identifier both endpoints use in
	// Self.Channel.
	Name string
	// A and B are the endpoint actor names. A is the paper's initiator,
	// B the client; the distinction only fixes nonce direction tags.
	A, B string
	// Plaintext disables transparent encryption even when A and B live
	// in different enclaves (Section 3.3: "except if the channel is
	// configured as non-encrypted").
	Plaintext bool
	// Capacity is the per-direction mbox capacity (power of two);
	// DefaultMboxCapacity when zero.
	Capacity int
}

// Config is the deployment description the paper keeps in a special
// configuration file (Section 3.2): enclaves, workers, eactors, their
// placement, and the channels wiring them together.
type Config struct {
	// Enclaves lists the trusted execution contexts to create.
	Enclaves []EnclaveSpec
	// Workers lists the executing workers. At least one is required.
	Workers []WorkerSpec
	// Actors lists the eactors.
	Actors []Spec
	// Channels wires pairs of eactors.
	Channels []ChannelSpec

	// PoolNodes and NodePayload size the shared preallocated node pool.
	PoolNodes   int
	NodePayload int

	// IdleSleep is the worker back-off once all its eactors are idle.
	IdleSleep time.Duration

	// Telemetry enables the observability subsystem: sharded counters and
	// latency histograms, exposed through Runtime.Telemetry (served over
	// HTTP by telemetry.Serve).
	// Disabled, every instrumentation site reduces to one nil check;
	// enabled, hot-path latency sampling keeps the overhead within ~10%
	// on the message fast path (see DESIGN.md §Observability).
	Telemetry bool

	// Trace enables sampled causal tracing (internal/trace): ingress
	// points root 1-in-TraceSampleEvery traces, and every hop of a
	// sampled message records spans (send, mailbox dwell, seal/open,
	// enclave crossing, invoke, ...) into per-worker ring buffers.
	// Independent of Telemetry. Disabled, every site reduces to a nil
	// check; armed, unsampled messages pay one atomic load per hop.
	Trace bool

	// TraceSampleEvery roots one trace per this many ingress events
	// (rounded up to a power of two; trace.DefaultSampleEvery when zero).
	TraceSampleEvery int

	// Profile enables per-actor cost accounting (internal/profile):
	// every actor gets a cost cell accumulating invoke CPU time, traffic
	// per peer, enclave crossings, seal/open work and mailbox dwell, and
	// Runtime.CostProfile snapshots the deployment-wide cost model.
	// Independent of Telemetry and Trace (though dwell attribution needs
	// Trace: it is folded from sampled dwell spans). Disabled, every
	// site reduces to a nil check. Seal/open clock reads are taken 1 in
	// profile.SampleEvery operations and extrapolated.
	Profile bool

	// Faults arms the deterministic fault injector on every hook site of
	// this deployment: channel sends/receives, enclave crossings, sealing,
	// body invocations (and, via sgx.Platform.AttachFaults, the platform
	// the runtime executes on). nil — the production case — reduces every
	// hook to a single pointer load. The same seed replays the same fault
	// schedule; see internal/faults.
	Faults *faults.Injector
}

// MemoryFootprint estimates the bytes the deployment preallocates:
// the public pool, per-enclave private pools, and mbox slot arrays.
// Deployments use it to plan against the EPC budget (Section 2.2's
// scarce-memory constraint) before starting a runtime.
func (c *Config) MemoryFootprint() (publicPool, privatePools, mboxes int) {
	poolNodes := c.PoolNodes
	if poolNodes == 0 {
		poolNodes = DefaultPoolNodes
	}
	payload := c.NodePayload
	if payload == 0 {
		payload = DefaultNodePayload
	}
	publicPool = poolNodes * payload
	for _, e := range c.Enclaves {
		privatePools += e.PrivatePoolNodes * payload
	}
	const slotBytes = 16 // sequence word + node pointer per ring slot
	for _, ch := range c.Channels {
		capacity := ch.Capacity
		if capacity == 0 {
			capacity = DefaultMboxCapacity
		}
		mboxes += 2 * capacity * slotBytes
	}
	return publicPool, privatePools, mboxes
}

func (c *Config) validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("core: config needs at least one worker")
	}
	if len(c.Actors) == 0 {
		return fmt.Errorf("core: config needs at least one actor")
	}
	enclaves := make(map[string]bool, len(c.Enclaves))
	for _, e := range c.Enclaves {
		if e.Name == "" {
			return fmt.Errorf("core: enclave with empty name")
		}
		if enclaves[e.Name] {
			return fmt.Errorf("core: duplicate enclave %q", e.Name)
		}
		enclaves[e.Name] = true
	}
	actors := make(map[string]bool, len(c.Actors))
	for _, a := range c.Actors {
		if a.Name == "" {
			return fmt.Errorf("core: actor with empty name")
		}
		if actors[a.Name] {
			return fmt.Errorf("core: duplicate actor %q", a.Name)
		}
		actors[a.Name] = true
		if a.Body == nil {
			return fmt.Errorf("core: actor %q has no body", a.Name)
		}
		if a.Enclave != "" && !enclaves[a.Enclave] {
			return fmt.Errorf("core: actor %q references unknown enclave %q", a.Name, a.Enclave)
		}
		if a.Worker < 0 || a.Worker >= len(c.Workers) {
			return fmt.Errorf("core: actor %q references worker %d of %d", a.Name, a.Worker, len(c.Workers))
		}
	}
	channels := make(map[string]bool, len(c.Channels))
	for _, ch := range c.Channels {
		if ch.Name == "" {
			return fmt.Errorf("core: channel with empty name")
		}
		if channels[ch.Name] {
			return fmt.Errorf("core: duplicate channel %q", ch.Name)
		}
		channels[ch.Name] = true
		if !actors[ch.A] {
			return fmt.Errorf("core: channel %q endpoint A references unknown actor %q", ch.Name, ch.A)
		}
		if !actors[ch.B] {
			return fmt.Errorf("core: channel %q endpoint B references unknown actor %q", ch.Name, ch.B)
		}
		if ch.A == ch.B {
			return fmt.Errorf("core: channel %q connects actor %q to itself", ch.Name, ch.A)
		}
		if ch.Capacity != 0 && (ch.Capacity < 2 || ch.Capacity&(ch.Capacity-1) != 0) {
			return fmt.Errorf("core: channel %q capacity %d is not a power of two", ch.Name, ch.Capacity)
		}
	}
	if c.PoolNodes < 0 || c.NodePayload < 0 {
		return fmt.Errorf("core: negative pool geometry")
	}
	if c.TraceSampleEvery < 0 {
		return fmt.Errorf("core: negative trace configuration")
	}
	return nil
}
