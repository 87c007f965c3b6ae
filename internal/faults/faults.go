// Package faults is the deterministic fault injector behind the chaos
// suite: a seed-driven schedule of failures pushed into the runtime's
// hook points (SGX enter/exit, seal/open, channel send/recv, worker
// invoke, POS sync). Stress-SGX-style testing only earns trust when a
// failing run can be replayed, so every decision is a pure function of
// (seed, site, per-site operation index) — the nth send always gets the
// same verdict for the same seed, regardless of thread interleaving or
// wall-clock time. Re-running with the printed seed reproduces the
// identical per-site fault schedule.
//
// The injector is dependency-free; the subsystems that consume it (sgx,
// core, pos) each accept an *Injector and treat nil as "faults off",
// so production paths pay one nil check.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Site identifies a hook point in the runtime.
type Site uint8

// Hook sites. Each site keeps its own operation counter, so schedules
// at different sites are independent.
const (
	// SiteEnter is an enclave entry (EENTER) in sgx.Context.
	SiteEnter Site = iota
	// SiteExit is an enclave exit (EEXIT) in sgx.Context.
	SiteExit
	// SiteSeal covers sgx.Enclave.Seal and the channel-layer payload
	// seal of encrypted endpoints.
	SiteSeal
	// SiteOpen covers sgx.Enclave.Unseal and the channel-layer payload
	// open.
	SiteOpen
	// SiteSend is a core Endpoint send (Send/SendBatch).
	SiteSend
	// SiteRecv is a core Endpoint receive.
	SiteRecv
	// SiteInvoke is one eactor body invocation.
	SiteInvoke
	// SitePosSync is a POS store sync to its backing file.
	SitePosSync

	numSites
)

// Class is the kind of fault injected at a site.
type Class uint8

// Fault classes. Which classes are meaningful at which site is up to
// the consuming subsystem; an action whose class it does not understand
// is ignored.
const (
	// None is the zero action: no fault.
	None Class = iota
	// SealCorrupt flips a byte of the sealed blob, so the peer's
	// authenticated open fails and the message/state is discarded.
	SealCorrupt
	// SendFail rejects the send as if the mailbox were full.
	SendFail
	// DoorbellDrop suppresses the consumer worker's doorbell ring, so
	// delivery waits for the idle-sleep poll.
	DoorbellDrop
	// Delay stalls the operation by the rule's Delay.
	Delay
	// SyncFail fails a POS sync with pos.ErrInjectedSync.
	SyncFail

	numClasses
)

var classNames = [numClasses]string{
	None: "none", SealCorrupt: "seal-corrupt", SendFail: "send-fail",
	DoorbellDrop: "doorbell-drop", Delay: "delay", SyncFail: "sync-fail",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Rule arms one fault class at one site with a per-operation rate.
type Rule struct {
	// Site is the hook point the rule applies to.
	Site Site
	// Class is the injected fault.
	Class Class
	// Rate is the per-operation probability in [0, 1].
	Rate float64
	// Delay is the stall length for Delay-class rules.
	Delay time.Duration
}

// Config describes a reproducible fault schedule.
type Config struct {
	// Seed drives the schedule; the same seed and rules reproduce the
	// identical per-site decision sequence.
	Seed uint64
	// Rules arm the fault classes. At most one rule fires per
	// operation: the first matching rule in declaration order wins.
	Rules []Rule
}

// Action is the injector's verdict for one operation.
type Action struct {
	// Class is None when no fault fires.
	Class Class
	// Delay is the stall for Delay-class actions.
	Delay time.Duration
}

type compiledRule struct {
	class     Class
	threshold uint64 // fire when hash < threshold
	delay     time.Duration
	salt      uint64 // mixes the rule index into the hash stream
}

// Injector evaluates a Config. It is safe for concurrent use; a nil
// *Injector is a no-op whose At always returns the zero Action.
type Injector struct {
	seed  uint64
	rules [numSites][]compiledRule
	cfg   Config

	// seq assigns each site its operation index. Padded out to a cache
	// line each so concurrent hot paths do not false-share.
	seq [numSites]paddedCounter

	injected atomic.Uint64
	byClass  [numClasses]atomic.Uint64
}

type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// New compiles a Config. Rates are clamped to [0, 1].
func New(cfg Config) *Injector {
	inj := &Injector{seed: cfg.Seed, cfg: cfg}
	for i, r := range cfg.Rules {
		if r.Site >= numSites || r.Class == None || r.Class >= numClasses {
			continue
		}
		rate := r.Rate
		if rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		var threshold uint64
		if rate >= 1 {
			threshold = ^uint64(0)
		} else {
			threshold = uint64(rate * float64(1<<63) * 2)
		}
		inj.rules[r.Site] = append(inj.rules[r.Site], compiledRule{
			class:     r.Class,
			threshold: threshold,
			delay:     r.Delay,
			salt:      splitmix64(uint64(i+1) * 0x9E3779B97F4A7C15),
		})
	}
	return inj
}

// At assigns the next operation index at site and returns the scheduled
// action. Nil-safe.
func (inj *Injector) At(site Site) Action {
	if inj == nil || site >= numSites {
		return Action{}
	}
	rules := inj.rules[site]
	if len(rules) == 0 {
		return Action{}
	}
	n := inj.seq[site].n.Add(1) - 1
	return inj.decide(site, n)
}

// decide is the pure schedule function: the verdict for operation n at
// site. At routes through it; tests call it directly to compare
// schedules across runs.
func (inj *Injector) decide(site Site, n uint64) Action {
	for _, r := range inj.rules[site] {
		h := splitmix64(inj.seed ^ (uint64(site)+1)<<56 ^ r.salt ^ splitmix64(n))
		if h < r.threshold {
			inj.injected.Add(1)
			inj.byClass[r.class].Add(1)
			return Action{Class: r.class, Delay: r.delay}
		}
	}
	return Action{}
}

// Schedule returns the verdicts for the first n operations at site
// without consuming operation indices or counting injections — the
// reproducibility probe used by tests and failure reports.
func (inj *Injector) Schedule(site Site, n int) []Class {
	if inj == nil || site >= numSites {
		return nil
	}
	out := make([]Class, n)
	for i := range out {
		out[i] = inj.peek(site, uint64(i))
	}
	return out
}

// peek is decide without side effects.
func (inj *Injector) peek(site Site, n uint64) Class {
	for _, r := range inj.rules[site] {
		h := splitmix64(inj.seed ^ (uint64(site)+1)<<56 ^ r.salt ^ splitmix64(n))
		if h < r.threshold {
			return r.class
		}
	}
	return None
}

// Injected returns the total number of faults injected so far.
func (inj *Injector) Injected() uint64 {
	if inj == nil {
		return 0
	}
	return inj.injected.Load()
}

// InjectedByClass returns the per-class injection counts, keyed by
// Class.String.
func (inj *Injector) InjectedByClass() map[string]uint64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]uint64)
	for c := Class(1); c < numClasses; c++ {
		if n := inj.byClass[c].Load(); n > 0 {
			out[c.String()] = n
		}
	}
	return out
}

// String renders the schedule for failure reports: seed, armed rules
// (class@site, the site as its number) and injection counts, one line.
func (inj *Injector) String() string {
	if inj == nil {
		return "faults: off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: seed=%d", inj.seed)
	for _, r := range inj.cfg.Rules {
		fmt.Fprintf(&b, " %s@%d=%.3g", r.Class, r.Site, r.Rate)
	}
	counts := inj.InjectedByClass()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " injected[%s]=%d", k, counts[k])
	}
	return b.String()
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer,
// cheap enough for per-operation use.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
