package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"sync/atomic"
)

// Measurement is the SHA-256 identity (MRENCLAVE analogue) of an enclave.
type Measurement [32]byte

// Enclave is a simulated SGX enclave: an isolated execution identity with
// thread-slot accounting, a sealing key and attestation support. Code
// placed "in" an enclave is ordinary Go code executed while a Context is
// entered into the enclave; the simulation enforces and charges the costs
// of that placement rather than memory isolation.
type Enclave struct {
	platform *Platform
	id       EnclaveID
	name     string
	meas     Measurement
	sealKey  [32]byte

	drbg *drbg

	// tcsLimit is the number of thread control structures (concurrent
	// threads the enclave admits); occupancy tracks current residents.
	tcsLimit atomic.Int64
	occupied atomic.Int64
}

// DefaultTCSCount matches the SGX SDK's common TCSNum configuration.
const DefaultTCSCount = 8

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
