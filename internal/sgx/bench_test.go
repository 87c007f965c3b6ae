package sgx

import (
	"fmt"
	"testing"
)

func benchPlatform(b *testing.B) (*Platform, *Enclave) {
	b.Helper()
	p := NewPlatform()
	e, err := p.CreateEnclave("bench", 64*1024)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.DestroyEnclave(e) })
	return p, e
}

// BenchmarkTransition measures one enter+exit pair under the calibrated
// cost model (should be ~5 µs: 2 x 4250 cycles at 3.4 GHz).
func BenchmarkTransition(b *testing.B) {
	p, e := benchPlatform(b)
	_ = p
	ctx := NewContext(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Enter(e); err != nil {
			b.Fatal(err)
		}
		ctx.Exit()
	}
}

// BenchmarkECallSizes shows the marshalling-copy contribution and the
// L1 knee of the native call path.
func BenchmarkECallSizes(b *testing.B) {
	for _, size := range []int{0, 1 << 10, 32 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p, e := benchPlatform(b)
			_ = p
			ctx := NewContext(p)
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctx.ECall(e, buf, nil, func() {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadRand shows the trusted-RNG latency that bounds the SMC
// plain protocol (Figure 12 discussion).
func BenchmarkReadRand(b *testing.B) {
	for _, size := range []int{8, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			_, e := benchPlatform(b)
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ReadRand(buf)
			}
		})
	}
}

// BenchmarkSealUnseal measures the sealing path the POS uses for its
// key slot.
func BenchmarkSealUnseal(b *testing.B) {
	_, e := benchPlatform(b)
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := e.Seal(payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Unseal(sealed, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalAttestation measures the channel-key handshake paid
// once per cross-enclave channel at startup.
func BenchmarkLocalAttestation(b *testing.B) {
	p := NewPlatform()
	a, err := p.CreateEnclave("a", 0)
	if err != nil {
		b.Fatal(err)
	}
	e2, err := p.CreateEnclave("b", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstablishSessionKey(a, e2); err != nil {
			b.Fatal(err)
		}
	}
}
