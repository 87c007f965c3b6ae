package sgx

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("sealer", 0)
	plaintext := []byte("secret configuration blob")
	aad := []byte("pos superblock v1")

	sealed, err := e.Seal(plaintext, aad)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(sealed, plaintext) {
		t.Fatal("sealed blob contains the plaintext")
	}
	got, err := e.Unseal(sealed, aad)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Fatalf("Unseal = %q, want %q", got, plaintext)
	}
}

func TestUnsealRejectsTamperedBlob(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("sealer", 0)
	sealed, err := e.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	sealed[len(sealed)-1] ^= 0x01
	if _, err := e.Unseal(sealed, nil); err == nil {
		t.Fatal("tampered blob unsealed")
	}
}

func TestUnsealRejectsWrongAAD(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("sealer", 0)
	sealed, _ := e.Seal([]byte("data"), []byte("aad-a"))
	if _, err := e.Unseal(sealed, []byte("aad-b")); err == nil {
		t.Fatal("blob unsealed under different AAD")
	}
}

func TestUnsealRejectsOtherEnclave(t *testing.T) {
	p := testPlatform(t)
	a, _ := p.CreateEnclave("a", 0)
	b, _ := p.CreateEnclave("b", 0)
	sealed, _ := a.Seal([]byte("for a only"), nil)
	if _, err := b.Unseal(sealed, nil); err == nil {
		t.Fatal("enclave b unsealed enclave a's blob (MRENCLAVE policy broken)")
	}
}

func TestUnsealShortBlob(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("sealer", 0)
	if _, err := e.Unseal(make([]byte, SealOverhead-1), nil); err != ErrSealTooShort {
		t.Fatalf("short blob err = %v, want ErrSealTooShort", err)
	}
}

func TestSealSurvivesPlatformRestart(t *testing.T) {
	// Same platform secret + same enclave identity → same seal key.
	p1 := NewPlatform(WithCostModel(ZeroCostModel()), WithPlatformSecret([]byte("machine-1")))
	e1, _ := p1.CreateEnclave("service", 0)
	sealed, err := e1.Seal([]byte("persisted key"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}

	p2 := NewPlatform(WithCostModel(ZeroCostModel()), WithPlatformSecret([]byte("machine-1")))
	e2, _ := p2.CreateEnclave("service", 0)
	got, err := e2.Unseal(sealed, nil)
	if err != nil {
		t.Fatalf("Unseal after restart: %v", err)
	}
	if string(got) != "persisted key" {
		t.Fatalf("Unseal = %q", got)
	}

	// A different machine must not unseal.
	p3 := NewPlatform(WithCostModel(ZeroCostModel()), WithPlatformSecret([]byte("machine-2")))
	e3, _ := p3.CreateEnclave("service", 0)
	if _, err := e3.Unseal(sealed, nil); err == nil {
		t.Fatal("different platform unsealed the blob")
	}
}

func TestSealQuickRoundTrip(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("q", 0)
	f := func(plaintext, aad []byte) bool {
		sealed, err := e.Seal(plaintext, aad)
		if err != nil {
			return false
		}
		got, err := e.Unseal(sealed, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadRandDeterministicPerSeed(t *testing.T) {
	p1 := NewPlatform(WithCostModel(ZeroCostModel()), WithPlatformSecret([]byte("seed")))
	p2 := NewPlatform(WithCostModel(ZeroCostModel()), WithPlatformSecret([]byte("seed")))
	e1, _ := p1.CreateEnclave("rng", 0)
	e2, _ := p2.CreateEnclave("rng", 0)
	a := make([]byte, 64)
	b := make([]byte, 64)
	e1.ReadRand(a)
	e2.ReadRand(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different streams")
	}
	var zero [64]byte
	if bytes.Equal(a, zero[:]) {
		t.Fatal("RNG produced all zeros")
	}
}

func TestReadRandAdvances(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("rng", 0)
	a := make([]byte, 32)
	b := make([]byte, 32)
	e.ReadRand(a)
	e.ReadRand(b)
	if bytes.Equal(a, b) {
		t.Fatal("consecutive ReadRand calls returned identical output")
	}
}

func TestReadRandConcurrent(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("rng", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			for j := 0; j < 100; j++ {
				e.ReadRand(buf)
			}
		}()
	}
	wg.Wait()
	if got := p.Snapshot().RandBytes; got != 8*100*128 {
		t.Fatalf("RandBytes = %d, want %d", got, 8*100*128)
	}
}

func TestReadRandUint32s(t *testing.T) {
	p := testPlatform(t)
	e, _ := p.CreateEnclave("rng", 0)
	v := make([]uint32, 257)
	e.ReadRandUint32s(v)
	allZero := true
	for _, x := range v {
		if x != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Fatal("ReadRandUint32s produced all zeros")
	}
	e.ReadRandUint32s(nil) // must not panic
}

func TestReportVerify(t *testing.T) {
	p := testPlatform(t)
	a, _ := p.CreateEnclave("alice", 0)
	b, _ := p.CreateEnclave("bob", 0)

	rep := a.CreateReport(b.meas, []byte("hello bob"))
	if err := b.VerifyReport(rep); err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
	if rep.Source != a.meas {
		t.Fatal("report source measurement mismatch")
	}

	// Wrong target.
	if err := a.VerifyReport(rep); err != ErrReportTarget {
		t.Fatalf("wrong-target verify err = %v, want ErrReportTarget", err)
	}

	// Tampered data.
	rep.Data[0] ^= 0xFF
	if err := b.VerifyReport(rep); err != ErrReportMAC {
		t.Fatalf("tampered verify err = %v, want ErrReportMAC", err)
	}
}

func TestEstablishSessionKey(t *testing.T) {
	p := testPlatform(t)
	a, _ := p.CreateEnclave("alice", 0)
	b, _ := p.CreateEnclave("bob", 0)
	k1, err := EstablishSessionKey(a, b)
	if err != nil {
		t.Fatalf("EstablishSessionKey: %v", err)
	}
	var zero [32]byte
	if k1 == zero {
		t.Fatal("session key is all zeros")
	}
	// A second handshake uses fresh ephemerals → a different key.
	k2, err := EstablishSessionKey(a, b)
	if err != nil {
		t.Fatalf("second handshake: %v", err)
	}
	if k1 == k2 {
		t.Fatal("two handshakes derived the same key (non-ephemeral)")
	}
}

func TestEstablishSessionKeyCrossPlatform(t *testing.T) {
	p1 := testPlatform(t)
	p2 := testPlatform(t)
	a, _ := p1.CreateEnclave("a", 0)
	b, _ := p2.CreateEnclave("b", 0)
	if _, err := EstablishSessionKey(a, b); err == nil {
		t.Fatal("cross-platform local attestation succeeded")
	}
	if _, err := EstablishSessionKey(nil, b); err == nil {
		t.Fatal("nil enclave accepted")
	}
}

func TestMutexUncontended(t *testing.T) {
	p := testPlatform(t)
	m := NewMutex(p)
	ctx := NewContext(p)
	m.Lock(ctx)
	m.Unlock(ctx)
	if got := p.Snapshot().MutexSleeps; got != 0 {
		t.Fatalf("uncontended lock slept %d times", got)
	}
}

func TestMutexContendedChargesSleepPath(t *testing.T) {
	p := NewPlatform(WithCostModel(ZeroCostModel()))
	e, _ := p.CreateEnclave("locker", 0)
	m := NewMutex(p)

	holder := NewContext(p)
	m.Lock(holder)

	acquired := make(chan struct{})
	go func() {
		ctx := NewContext(p)
		if err := ctx.Enter(e); err != nil {
			t.Errorf("Enter: %v", err)
		}
		m.Lock(ctx) // must take the sleep path: the holder keeps the lock
		close(acquired)
		m.Unlock(ctx)
	}()
	// Release only once the contender has committed to the sleep path.
	for m.sleepers.Load() == 0 {
		// spin; the contender registers as a sleeper before blocking
	}
	m.Unlock(holder)
	<-acquired

	s := p.Snapshot()
	if s.MutexSleeps != 1 {
		t.Fatalf("MutexSleeps = %d, want 1", s.MutexSleeps)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	p := testPlatform(t)
	m := NewMutex(p)
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext(p)
			for j := 0; j < 1000; j++ {
				m.Lock(ctx)
				counter++
				m.Unlock(ctx)
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates)", counter)
	}
}
