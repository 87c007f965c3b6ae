package sgx

import (
	"testing"
	"time"
)

func testPlatform(t *testing.T) *Platform {
	t.Helper()
	return NewPlatform(WithCostModel(ZeroCostModel()))
}

func TestCreateEnclave(t *testing.T) {
	p := testPlatform(t)
	e, err := p.CreateEnclave("alpha", 3*PageBytes)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	if e.id == Untrusted {
		t.Fatal("enclave got the untrusted ID")
	}
	if e.name != "alpha" {
		t.Fatalf("Name = %q, want alpha", e.name)
	}
}

func TestCreateEnclaveDuplicateName(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.CreateEnclave("dup", 0); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if _, err := p.CreateEnclave("dup", 0); err == nil {
		t.Fatal("duplicate enclave name accepted")
	}
}

func TestCreateEnclaveEmptyName(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.CreateEnclave("", 0); err == nil {
		t.Fatal("empty enclave name accepted")
	}
}

func TestEnclaveLookup(t *testing.T) {
	p := testPlatform(t)
	e, err := p.CreateEnclave("lookup", 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	got, ok := p.Enclave(e.id)
	if !ok || got != e {
		t.Fatal("Enclave by ID did not return the created enclave")
	}
	if _, ok := p.Enclave(Untrusted); ok {
		t.Fatal("untrusted ID resolved to an enclave")
	}
	if _, ok := p.Enclave(9999); ok {
		t.Fatal("unknown ID resolved to an enclave")
	}
}

func TestDestroyEnclaveReleasesEPC(t *testing.T) {
	p := testPlatform(t)
	e, err := p.CreateEnclave("victim", 8*PageBytes)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	p.DestroyEnclave(e)
	if _, ok := p.Enclave(e.id); ok {
		t.Fatal("destroyed enclave still resolvable")
	}
}

func TestContextTransitions(t *testing.T) {
	p := testPlatform(t)
	e1, _ := p.CreateEnclave("e1", 0)
	e2, _ := p.CreateEnclave("e2", 0)
	ctx := NewContext(p)
	if ctx.InEnclave() {
		t.Fatal("fresh context claims to be in an enclave")
	}

	if err := ctx.Enter(e1); err != nil {
		t.Fatalf("Enter(e1): %v", err)
	}
	if got := ctx.Crossings(); got != 1 {
		t.Fatalf("crossings after enter = %d, want 1", got)
	}
	if ctx.cur != e1.id {
		t.Fatalf("Current = %d, want %d", ctx.cur, e1.id)
	}

	// Re-entering the current enclave is free.
	if err := ctx.Enter(e1); err != nil {
		t.Fatalf("re-Enter(e1): %v", err)
	}
	if got := ctx.Crossings(); got != 1 {
		t.Fatalf("crossings after same-enclave enter = %d, want 1", got)
	}

	// Moving between enclaves costs exit + enter.
	if err := ctx.Enter(e2); err != nil {
		t.Fatalf("Enter(e2): %v", err)
	}
	if got := ctx.Crossings(); got != 3 {
		t.Fatalf("crossings after hop = %d, want 3", got)
	}

	ctx.Exit()
	if got := ctx.Crossings(); got != 4 {
		t.Fatalf("crossings after exit = %d, want 4", got)
	}
	if ctx.InEnclave() {
		t.Fatal("context still in enclave after Exit")
	}

	// Exit while untrusted is free.
	ctx.Exit()
	if got := ctx.Crossings(); got != 4 {
		t.Fatalf("crossings after no-op exit = %d, want 4", got)
	}
}

func TestContextMoveToUnknown(t *testing.T) {
	p := testPlatform(t)
	ctx := NewContext(p)
	if err := ctx.MoveTo(EnclaveID(42)); err == nil {
		t.Fatal("MoveTo unknown enclave succeeded")
	}
}

func TestECallCounting(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("callee", 0)
	ctx := NewContext(p)
	ran := false
	var insideID EnclaveID
	err := ctx.ECall(e, make([]byte, 100), make([]byte, 50), func() {
		ran = true
		insideID = ctx.cur
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if !ran {
		t.Fatal("ECall body did not run")
	}
	if insideID != e.id {
		t.Fatalf("ECall body ran in enclave %d, want %d", insideID, e.id)
	}
	if ctx.InEnclave() {
		t.Fatal("context stayed inside the enclave after ECall")
	}
	s := p.Snapshot()
	if s.ECalls != 1 {
		t.Fatalf("ECalls = %d, want 1", s.ECalls)
	}
	if s.Crossings != 2 {
		t.Fatalf("Crossings = %d, want 2", s.Crossings)
	}
	if s.CopiedBytes != 150 {
		t.Fatalf("CopiedBytes = %d, want 150", s.CopiedBytes)
	}
}

func TestOCallRequiresEnclave(t *testing.T) {
	p := testPlatform(t)
	ctx := NewContext(p)
	if err := ctx.OCall(nil, nil, func() {}); err != ErrNotInEnclave {
		t.Fatalf("OCall outside enclave: err = %v, want ErrNotInEnclave", err)
	}
}

func TestOCallRoundTrip(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("caller", 0)
	ctx := NewContext(p)
	if err := ctx.Enter(e); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	var outsideID EnclaveID = 99
	err := ctx.OCall(make([]byte, 10), nil, func() {
		outsideID = ctx.cur
	})
	if err != nil {
		t.Fatalf("OCall: %v", err)
	}
	if outsideID != Untrusted {
		t.Fatalf("OCall body ran in enclave %d, want untrusted", outsideID)
	}
	if ctx.cur != e.id {
		t.Fatal("context did not return to the enclave after OCall")
	}
	if s := p.Snapshot(); s.OCalls != 1 {
		t.Fatalf("OCalls = %d, want 1", s.OCalls)
	}
}

func TestECallFromOtherEnclaveRejected(t *testing.T) {
	p := testPlatform(t)
	e1, _ := p.CreateEnclave("one", 0)
	e2, _ := p.CreateEnclave("two", 0)
	ctx := NewContext(p)
	if err := ctx.Enter(e1); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	if err := ctx.ECall(e2, nil, nil, func() {}); err != ErrInEnclave {
		t.Fatalf("cross-enclave ECall err = %v, want ErrInEnclave", err)
	}
}

func TestCostModelCharges(t *testing.T) {
	m := DefaultCostModel()
	d := m.CyclesToDuration(3400)
	if d != time.Microsecond {
		t.Fatalf("3400 cycles at 3.4 GHz = %v, want 1µs", d)
	}
	if ZeroCostModel().CyclesToDuration(1e9) != 0 {
		t.Fatal("zero model charged time")
	}
}

func TestCopyCyclesKnee(t *testing.T) {
	m := DefaultCostModel()
	hot := m.CopyCycles(DefaultL1CacheBytes)
	cold := m.CopyCycles(2 * DefaultL1CacheBytes)
	// The second half is charged at the cold rate, which must exceed the
	// hot rate for the Fig. 11 knee to appear.
	if cold <= 2*hot {
		t.Fatalf("no L1 knee: copy(64K)=%v cycles vs copy(32K)=%v cycles", cold, hot)
	}
	if m.CopyCycles(0) != 0 || m.CopyCycles(-5) != 0 {
		t.Fatal("non-positive sizes should cost nothing")
	}
}

func TestRandCycles(t *testing.T) {
	m := DefaultCostModel()
	if got, want := m.RandCycles(8), float64(DefaultRandCyclesPerBlock); got != want {
		t.Fatalf("RandCycles(8) = %v, want %v", got, want)
	}
	// Partial blocks round up.
	if got, want := m.RandCycles(9), float64(2*DefaultRandCyclesPerBlock); got != want {
		t.Fatalf("RandCycles(9) = %v, want %v", got, want)
	}
}

func TestSpinAccuracy(t *testing.T) {
	start := time.Now()
	Spin(200 * time.Microsecond)
	elapsed := time.Since(start)
	if elapsed < 200*time.Microsecond {
		t.Fatalf("Spin returned early: %v", elapsed)
	}
	if elapsed > 20*time.Millisecond {
		t.Fatalf("Spin wildly overshot: %v", elapsed)
	}
}
