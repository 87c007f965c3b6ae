package sgx

import (
	"sync"
	"testing"
)

func TestTCSDefaults(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("tcs", 0)
	if e.TCSLimit() != DefaultTCSCount {
		t.Fatalf("TCSLimit = %d, want %d", e.TCSLimit(), DefaultTCSCount)
	}
	e.SetTCSLimit(2)
	if e.TCSLimit() != 2 {
		t.Fatalf("TCSLimit = %d after set", e.TCSLimit())
	}
	e.SetTCSLimit(0) // invalid: ignored
	if e.TCSLimit() != 2 {
		t.Fatalf("TCSLimit changed by invalid set: %d", e.TCSLimit())
	}
}

func TestTCSOccupancyTracking(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("occ", 0)
	ctx1 := NewContext(p)
	ctx2 := NewContext(p)
	if err := ctx1.Enter(e); err != nil {
		t.Fatal(err)
	}
	if err := ctx2.Enter(e); err != nil {
		t.Fatal(err)
	}
	if got := e.Occupancy(); got != 2 {
		t.Fatalf("Occupancy = %d, want 2", got)
	}
	ctx1.Exit()
	if got := e.Occupancy(); got != 1 {
		t.Fatalf("Occupancy after exit = %d, want 1", got)
	}
	ctx2.Exit()
	if got := e.Occupancy(); got != 0 {
		t.Fatalf("Occupancy after both exits = %d", got)
	}
	if p.Snapshot().TCSOverflows != 0 {
		t.Fatal("overflow recorded within the limit")
	}
}

func TestTCSOverflowCounted(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("tight", 0)
	e.SetTCSLimit(2)
	ctxs := make([]*Context, 4)
	for i := range ctxs {
		ctxs[i] = NewContext(p)
		if err := ctxs[i].Enter(e); err != nil {
			t.Fatal(err)
		}
	}
	// Entries 3 and 4 exceeded the two slots.
	if got := p.Snapshot().TCSOverflows; got != 2 {
		t.Fatalf("TCSOverflows = %d, want 2", got)
	}
	for _, c := range ctxs {
		c.Exit()
	}
}

func TestTCSWithECallOCall(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("calls", 0)
	ctx := NewContext(p)
	_ = ctx.ECall(e, nil, nil, func() {
		if e.Occupancy() != 1 {
			t.Errorf("Occupancy in ECall = %d", e.Occupancy())
		}
		_ = ctx.OCall(nil, nil, func() {
			if e.Occupancy() != 0 {
				t.Errorf("Occupancy in OCall = %d", e.Occupancy())
			}
		})
		if e.Occupancy() != 1 {
			t.Errorf("Occupancy after OCall = %d", e.Occupancy())
		}
	})
	if e.Occupancy() != 0 {
		t.Fatalf("Occupancy after ECall = %d", e.Occupancy())
	}
}

func TestTCSConcurrent(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("conc", 0)
	e.SetTCSLimit(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext(p)
			for j := 0; j < 500; j++ {
				_ = ctx.Enter(e)
				ctx.Exit()
			}
		}()
	}
	wg.Wait()
	if got := e.Occupancy(); got != 0 {
		t.Fatalf("Occupancy leaked: %d", got)
	}
}

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
