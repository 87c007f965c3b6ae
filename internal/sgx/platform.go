package sgx

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
)

// EnclaveID identifies an enclave on a Platform. The zero value denotes
// the untrusted application context.
type EnclaveID uint32

// Untrusted is the pseudo-identity of the untrusted application context.
const Untrusted EnclaveID = 0

// Stats aggregates simulator counters. All fields are monotonically
// increasing and safe for concurrent access through Platform methods.
type Stats struct {
	// Crossings counts boundary crossings (each enter or exit is one).
	Crossings uint64
	// ECalls counts ECall round trips.
	ECalls uint64
	// OCalls counts OCall round trips.
	OCalls uint64
	// CopiedBytes counts bytes marshalled across the boundary by the
	// SDK-style call path.
	CopiedBytes uint64
	// EvictedPages counts EPC pages evicted under memory pressure.
	EvictedPages uint64
	// RandBytes counts trusted RNG bytes produced.
	RandBytes uint64
	// MutexSleeps counts Mutex acquisitions that took the
	// exit-enclave-and-sleep path.
	MutexSleeps uint64
	// TCSOverflows counts enclave entries beyond the enclave's thread
	// slots (on hardware these would stall the entering thread).
	TCSOverflows uint64
	// CrossingsAvoided is always 0: nothing sets it, benchmark/traced.go reads it.
	CrossingsAvoided uint64
}

// Platform owns a set of simulated enclaves, the shared EPC budget and
// the attestation infrastructure. It is safe for concurrent use.
type Platform struct {
	costs *CostModel

	epcPages     int64 // total budget, in pages
	epcUsed      atomic.Int64
	attestSecret [32]byte

	mu       sync.RWMutex
	enclaves map[EnclaveID]*Enclave
	nextID   uint32

	// tel is nil until AttachTelemetry; charge paths pay one atomic
	// pointer load to find out.
	tel atomic.Pointer[platformTelemetry]

	// flt is nil until AttachFaults; hook sites pay the same single
	// atomic pointer load.
	flt atomic.Pointer[faults.Injector]

	crossings    atomic.Uint64
	ecalls       atomic.Uint64
	ocalls       atomic.Uint64
	copiedBytes  atomic.Uint64
	evictedPages atomic.Uint64
	randBytes    atomic.Uint64
	mutexSleeps  atomic.Uint64
	tcsOverflows atomic.Uint64
}

// PlatformOption customises NewPlatform.
type PlatformOption func(*platformConfig)

type platformConfig struct {
	costs    *CostModel
	epcBytes int64
	secret   []byte
}

// WithCostModel sets the platform cost model (default DefaultCostModel).
func WithCostModel(m *CostModel) PlatformOption {
	return func(c *platformConfig) { c.costs = m }
}

// WithEPCBytes sets the usable EPC budget in bytes (default 93 MiB).
func WithEPCBytes(n int64) PlatformOption {
	return func(c *platformConfig) { c.epcBytes = n }
}

// WithPlatformSecret seeds the platform attestation/sealing secret,
// making measurements and seal keys reproducible across restarts of the
// same logical machine.
func WithPlatformSecret(secret []byte) PlatformOption {
	return func(c *platformConfig) { c.secret = secret }
}

// NewPlatform creates a simulated SGX platform.
func NewPlatform(opts ...PlatformOption) *Platform {
	cfg := platformConfig{
		costs:    DefaultCostModel(),
		epcBytes: DefaultEPCBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	p := &Platform{
		costs:    cfg.costs,
		epcPages: (cfg.epcBytes + PageBytes - 1) / PageBytes,
		enclaves: make(map[EnclaveID]*Enclave),
	}
	if len(cfg.secret) > 0 {
		p.attestSecret = sha256.Sum256(cfg.secret)
	} else {
		p.attestSecret = sha256.Sum256([]byte("eactors-go simulated platform"))
	}
	return p
}

// Costs returns the platform cost model.
func (p *Platform) Costs() *CostModel { return p.costs }

// CreateEnclave builds and "loads" an enclave with the given name and an
// initial code+data size in bytes. Loading charges the page-by-page EPC
// copy the SDK performs at enclave creation.
func (p *Platform) CreateEnclave(name string, sizeBytes int) (*Enclave, error) {
	if name == "" {
		return nil, errors.New("sgx: enclave name must not be empty")
	}
	p.mu.Lock()
	p.nextID++
	id := EnclaveID(p.nextID)
	for _, e := range p.enclaves {
		if e.name == name {
			p.mu.Unlock()
			return nil, fmt.Errorf("sgx: enclave %q already exists", name)
		}
	}
	e := newEnclave(p, id, name)
	p.enclaves[id] = e
	p.mu.Unlock()

	pages := (sizeBytes + PageBytes - 1) / PageBytes
	if pages > 0 {
		if err := e.AllocPages(pages); err != nil {
			p.mu.Lock()
			delete(p.enclaves, id)
			p.mu.Unlock()
			return nil, err
		}
		// Enclave creation copies code and data page by page into the
		// EPC (EADD + EEXTEND); charge one cold copy per page.
		p.costs.ChargeCycles(float64(pages) * p.costs.CopyCyclesPerByteCold * PageBytes)
	}
	if t := p.tel.Load(); t != nil {
		t.registerEnclaveGauge(e)
	}
	return e, nil
}

// DestroyEnclave removes an enclave and releases its EPC pages.
func (p *Platform) DestroyEnclave(e *Enclave) {
	if e == nil {
		return
	}
	p.mu.Lock()
	delete(p.enclaves, e.id)
	p.mu.Unlock()
	p.epcUsed.Add(-e.pages.Swap(0))
}

// Enclave looks up an enclave by ID. The untrusted ID yields nil, false.
func (p *Platform) Enclave(id EnclaveID) (*Enclave, bool) {
	if id == Untrusted {
		return nil, false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.enclaves[id]
	return e, ok
}

// EnclaveByName looks up an enclave by name.
func (p *Platform) EnclaveByName(name string) (*Enclave, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.enclaves {
		if e.name == name {
			return e, true
		}
	}
	return nil, false
}

// EPCUsedPages reports the pages currently resident in the simulated EPC.
func (p *Platform) EPCUsedPages() int64 { return p.epcUsed.Load() }

// Snapshot returns a copy of the simulator counters.
func (p *Platform) Snapshot() Stats {
	return Stats{
		Crossings:    p.crossings.Load(),
		ECalls:       p.ecalls.Load(),
		OCalls:       p.ocalls.Load(),
		CopiedBytes:  p.copiedBytes.Load(),
		EvictedPages: p.evictedPages.Load(),
		RandBytes:    p.randBytes.Load(),
		MutexSleeps:  p.mutexSleeps.Load(),
		TCSOverflows: p.tcsOverflows.Load(),
	}
}

// Delta returns the counter increments since an earlier snapshot.
func (s Stats) Delta(earlier Stats) Stats {
	return Stats{
		Crossings:    s.Crossings - earlier.Crossings,
		ECalls:       s.ECalls - earlier.ECalls,
		OCalls:       s.OCalls - earlier.OCalls,
		CopiedBytes:  s.CopiedBytes - earlier.CopiedBytes,
		EvictedPages: s.EvictedPages - earlier.EvictedPages,
		RandBytes:    s.RandBytes - earlier.RandBytes,
		MutexSleeps:  s.MutexSleeps - earlier.MutexSleeps,
		TCSOverflows: s.TCSOverflows - earlier.TCSOverflows,
	}
}

// chargeCrossing burns one boundary-crossing cost and counts it. It
// returns the charged duration so contexts can trace it.
func (p *Platform) chargeCrossing() time.Duration {
	p.crossings.Add(1)
	d := p.costs.CyclesToDuration(float64(p.costs.CrossCycles))
	if t := p.tel.Load(); t != nil {
		t.crossNs.Observe(uint64(d))
	}
	Spin(d)
	return d
}

// chargeCopy burns the marshalling cost for n bytes and counts them.
func (p *Platform) chargeCopy(n int) {
	if n <= 0 {
		return
	}
	p.copiedBytes.Add(uint64(n))
	p.costs.ChargeCycles(p.costs.CopyCycles(n))
}
