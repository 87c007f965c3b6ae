package sgx

import (
	"errors"
	"fmt"

	"github.com/eactors/eactors-go/internal/faults"
)

// Context is a per-thread execution context tracking which enclave the
// thread currently executes in. Entering and leaving enclaves charges
// boundary crossings; running code for an enclave the context is already
// inside is free — the property the EActors worker/deployment model
// exploits (Section 3.2: a worker whose eactors share an enclave never
// leaves it).
//
// A Context is not safe for concurrent use; create one per worker thread.
type Context struct {
	platform *Platform
	cur      EnclaveID

	// crossings counts the crossings performed by this context alone.
	crossings uint64
}

// NewContext returns a context starting in the untrusted application.
func NewContext(p *Platform) *Context {
	return &Context{platform: p}
}

// InEnclave reports whether the context is inside any enclave.
func (c *Context) InEnclave() bool { return c.cur != Untrusted }

// Crossings returns the number of boundary crossings this context paid.
func (c *Context) Crossings() uint64 { return c.crossings }

// MoveTo transitions the context to the execution domain of target
// (Untrusted allowed). Moving between two distinct enclaves costs an exit
// plus an enter; moving to the current domain is free.
func (c *Context) MoveTo(target EnclaveID) error {
	if target == c.cur {
		return nil
	}
	if target != Untrusted {
		if _, ok := c.platform.Enclave(target); !ok {
			return fmt.Errorf("sgx: MoveTo: unknown enclave %d", target)
		}
	}
	if c.cur != Untrusted {
		if prev, ok := c.platform.Enclave(c.cur); ok {
			prev.noteExit()
		}
		c.cross(faults.SiteExit) // EEXIT from the current enclave
	}
	if target != Untrusted {
		next, _ := c.platform.Enclave(target)
		next.noteEnter()
		c.cross(faults.SiteEnter) // EENTER into the target enclave
	}
	c.cur = target
	return nil
}

// Enter moves the context into enclave e.
func (c *Context) Enter(e *Enclave) error {
	if e == nil {
		return errors.New("sgx: Enter: nil enclave")
	}
	return c.MoveTo(e.id)
}

// Exit moves the context back to the untrusted application.
func (c *Context) Exit() {
	_ = c.MoveTo(Untrusted)
}

func (c *Context) cross(site faults.Site) {
	c.crossings++
	c.platform.chargeCrossing()
	if inj := c.platform.flt.Load(); inj != nil {
		// Injected crossing fault: a delayed (interrupted and retried)
		// transition.
		if act := inj.At(site); act.Class == faults.Delay {
			Spin(act.Delay)
		}
	}
}
