package sgx

import (
	"github.com/eactors/eactors-go/internal/faults"
)

// AttachFaults arms the platform with a deterministic fault injector:
// boundary crossings consult it for injected delays, and Seal corrupts
// its output when the schedule says so. A nil injector (or never
// attaching one) keeps every hook a single atomic pointer load that
// reads nil.
//
// The core runtime attaches Config.Faults here automatically; tests and
// chaos drivers may also attach directly.
func (p *Platform) AttachFaults(inj *faults.Injector) {
	p.flt.Store(inj)
}

// corruptSealedBlob realises a SealCorrupt action: one flipped bit in
// the ciphertext body, which the authenticated Unseal/Open on the other
// side is guaranteed to reject.
func corruptSealedBlob(blob []byte) {
	if len(blob) == 0 {
		return
	}
	blob[len(blob)/2] ^= 0x80
}
