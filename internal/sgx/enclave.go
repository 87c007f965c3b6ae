package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
)

// Measurement is the SHA-256 identity (MRENCLAVE analogue) of an enclave.
type Measurement [32]byte

// String renders the first bytes of the measurement in hex.
func (m Measurement) String() string {
	return fmt.Sprintf("%x", m[:8])
}

// Enclave is a simulated SGX enclave: an isolated execution identity with
// EPC accounting, a sealing key and attestation support. Code placed "in"
// an enclave is ordinary Go code executed while a Context is entered into
// the enclave; the simulation enforces and charges the costs of that
// placement rather than memory isolation.
type Enclave struct {
	platform *Platform
	id       EnclaveID
	name     string
	meas     Measurement
	sealKey  [32]byte

	pages   atomic.Int64
	evicted atomic.Uint64
	drbg    *drbg

	// tcsLimit is the number of thread control structures (concurrent
	// threads the enclave admits); occupancy tracks current residents.
	tcsLimit atomic.Int64
	occupied atomic.Int64
}

// DefaultTCSCount matches the SGX SDK's common TCSNum configuration.
const DefaultTCSCount = 8

// SetTCSLimit overrides the enclave's thread-slot count (the SDK's
// TCSNum). Entering beyond the limit is recorded in the platform stats
// as a TCS overflow — on hardware the EENTER would fail and the thread
// would have to wait, so deployments (like the paper's) size workers to
// stay within it.
func (e *Enclave) SetTCSLimit(n int) {
	if n > 0 {
		e.tcsLimit.Store(int64(n))
	}
}

// TCSLimit returns the configured thread-slot count.
func (e *Enclave) TCSLimit() int { return int(e.tcsLimit.Load()) }

// Occupancy returns the number of contexts currently inside the enclave.
func (e *Enclave) Occupancy() int { return int(e.occupied.Load()) }

func (e *Enclave) noteEnter() {
	if e.occupied.Add(1) > e.tcsLimit.Load() {
		e.platform.tcsOverflows.Add(1)
	}
}

func (e *Enclave) noteExit() {
	e.occupied.Add(-1)
}

func newEnclave(p *Platform, id EnclaveID, name string) *Enclave {
	e := &Enclave{platform: p, id: id, name: name}
	// The measurement binds the enclave's logical identity; derived from
	// the name so that the "same code" re-created later attests equal.
	e.meas = sha256.Sum256([]byte("measurement:" + name))
	// The seal key derives from the platform secret and the measurement
	// (MRENCLAVE sealing policy): same enclave on same platform unseals.
	mac := hmac.New(sha256.New, p.attestSecret[:])
	mac.Write([]byte("seal"))
	mac.Write(e.meas[:])
	copy(e.sealKey[:], mac.Sum(nil))
	e.drbg = newDRBG(e.sealKey, p)
	e.tcsLimit.Store(DefaultTCSCount)
	return e
}

// ID returns the enclave identity on its platform.
func (e *Enclave) ID() EnclaveID { return e.id }

// Name returns the configured enclave name.
func (e *Enclave) Name() string { return e.name }

// Measurement returns the enclave identity hash.
func (e *Enclave) Measurement() Measurement { return e.meas }

// Platform returns the owning platform.
func (e *Enclave) Platform() *Platform { return e.platform }

// PagesResident reports the EPC pages currently accounted to the enclave.
func (e *Enclave) PagesResident() int64 { return e.pages.Load() }

// EvictedPages reports the cumulative pages evicted under EPC pressure
// that were charged to this enclave (allocation overflow and touch
// misses alike) — the per-enclave share of Platform stats' evictions.
func (e *Enclave) EvictedPages() uint64 { return e.evicted.Load() }

// AllocPages accounts n EPC pages to the enclave. If the platform-wide
// budget is exceeded, the eviction (re-encryption) penalty is charged for
// every page past the budget, reproducing SGX paging degradation.
func (e *Enclave) AllocPages(n int) error {
	if n < 0 {
		return fmt.Errorf("sgx: AllocPages(%d): negative count", n)
	}
	if n == 0 {
		return nil
	}
	p := e.platform
	used := p.epcUsed.Add(int64(n))
	e.pages.Add(int64(n))
	if over := used - p.epcPages; over > 0 {
		evict := int64(n)
		if over < evict {
			evict = over
		}
		p.evictedPages.Add(uint64(evict))
		e.evicted.Add(uint64(evict))
		p.costs.ChargeCycles(float64(evict) * float64(p.costs.PageEvictCycles))
	}
	return nil
}

// AllocBytes accounts the pages covering n bytes.
func (e *Enclave) AllocBytes(n int) error {
	return e.AllocPages((n + PageBytes - 1) / PageBytes)
}

// TouchPages models accessing n resident pages under EPC pressure: when
// the platform working set exceeds the EPC budget, a fraction of the
// touched pages miss and pay the eviction penalty. It reproduces the
// steady-state paging slowdown of over-committed enclaves.
func (e *Enclave) TouchPages(n int) {
	if n <= 0 {
		return
	}
	p := e.platform
	used := p.epcUsed.Load()
	if used <= p.epcPages || p.epcPages == 0 {
		return
	}
	// Miss ratio approximates (resident beyond budget) / working set.
	missRatio := float64(used-p.epcPages) / float64(used)
	misses := int64(float64(n) * missRatio)
	if misses <= 0 {
		return
	}
	p.evictedPages.Add(uint64(misses))
	e.evicted.Add(uint64(misses))
	p.costs.ChargeCycles(float64(misses) * float64(p.costs.PageEvictCycles))
}
