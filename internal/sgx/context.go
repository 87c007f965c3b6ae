package sgx

import (
	"errors"
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/telemetry"
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

	// shard and rec are set by AttachTelemetry (see telemetry.go); rec
	// traces each crossing as an EvCrossing flight-recorder event.
	shard int
	rec   *telemetry.Recorder

	// Crossing capture for causal tracing (ArmCrossCapture): the wall
	// start and duration of the most recent crossing, retro-attributed
	// to a traced invocation by the worker after the fact.
	captureCross bool
	lastCrossNS  int64
	lastCrossDur int64
}

// NewContext returns a context starting in the untrusted application.
func NewContext(p *Platform) *Context {
	return &Context{platform: p}
}

// Platform returns the platform this context executes on.
func (c *Context) Platform() *Platform { return c.platform }

// Current returns the enclave the context is inside (Untrusted if none).
func (c *Context) Current() EnclaveID { return c.cur }

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

// ArmCrossCapture makes the context remember the wall-clock start and
// duration of each crossing so a tracing worker can attribute the
// transition that preceded a traced invocation. Off by default: the
// capture costs one time.Now per crossing.
func (c *Context) ArmCrossCapture() { c.captureCross = true }

// LastCrossing returns the wall start (UnixNano) and duration of the
// most recent crossing, or zeros when capture is off or nothing has
// crossed yet.
func (c *Context) LastCrossing() (startNS, durNS int64) {
	return c.lastCrossNS, c.lastCrossDur
}

func (c *Context) cross(site faults.Site) {
	c.crossings++
	var wallStart time.Time
	if c.captureCross {
		wallStart = time.Now()
	}
	d := c.platform.chargeCrossing()
	if inj := c.platform.flt.Load(); inj != nil {
		// Injected crossing fault: a delayed (interrupted and retried)
		// transition.
		if act := inj.At(site); act.Class == faults.Delay {
			Spin(act.Delay)
		}
	}
	if c.rec != nil {
		// ID is the domain crossed out of / into (c.cur at call time).
		c.rec.Record(telemetry.EvCrossing, uint32(c.cur), uint64(d))
	}
	if c.captureCross {
		// Wall duration, so injected delays show up in the crossing
		// span just as they do in real latency.
		c.lastCrossNS = wallStart.UnixNano()
		c.lastCrossDur = int64(time.Since(wallStart))
	}
}
