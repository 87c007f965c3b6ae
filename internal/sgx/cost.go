// Package sgx simulates Intel SGX trusted-execution mechanics with a
// calibrated cost model.
//
// The EActors paper evaluates its framework on real SGX hardware. The
// properties its evaluation depends on are not confidentiality per se but
// the costs of the enclave life cycle: execution-mode transitions
// (ECall/OCall, ~8000-9000 cycles), the SDK's marshalling copies, the
// spin-then-exit behaviour of SGX mutexes, the slow trusted random number
// generator, and the page-by-page copy that loads an enclave. EPC paging
// is not modelled: no workload here crosses the EPC budget. This package
// reproduces exactly those costs in software: every simulated operation
// charges a number of CPU cycles that is converted to wall time and
// burned with a busy spin, so benchmarks built on top of it exhibit the
// same relative shapes as the paper's hardware numbers.
package sgx

import (
	"time"
)

// Default cost-model constants, taken from the figures reported in the
// EActors paper and its citations (HotCalls, Eleos).
const (
	// DefaultFrequencyGHz is the clock of the paper's evaluation machine
	// (Intel Xeon E3-1230 v5, 3.40 GHz). Cycle charges are converted to
	// wall time at this frequency.
	DefaultFrequencyGHz = 3.4

	// DefaultCallCycles is the cost of one full ECall or OCall round trip
	// (enter + exit), 8000-9000 cycles per the paper; we use the middle.
	DefaultCallCycles = 8500

	// DefaultCrossCycles is the cost of a single boundary crossing
	// (half of a call round trip).
	DefaultCrossCycles = DefaultCallCycles / 2

	// DefaultCopyCyclesPerByte models the SDK's marshalling memcpy while
	// the payload still fits the L1 data cache (~0.5 cycles/byte).
	DefaultCopyCyclesPerByte = 0.5

	// DefaultCopyCyclesPerByteCold models the marshalling copy once the
	// payload exceeds the 32 KiB L1 data cache; the paper observes the
	// native SDK throughput peaking near 32 KiB and degrading beyond
	// (Figure 11 discussion).
	DefaultCopyCyclesPerByteCold = 2.0

	// DefaultL1CacheBytes is the L1 data cache size of Skylake cores.
	DefaultL1CacheBytes = 32 * 1024

	// DefaultRandCyclesPerBlock is the charge for each 8-byte block
	// produced by the trusted RNG (RDRAND-like latency; the paper
	// identifies sgx_read_rand as the SMC bottleneck, Section 6.3.1).
	DefaultRandCyclesPerBlock = 460

	// DefaultRandBlockBytes is the block granularity of the trusted RNG.
	DefaultRandBlockBytes = 8

	// PageBytes is the EPC page size.
	PageBytes = 4096

	// DefaultMutexSpinCycles is the bounded spin budget of the SDK mutex
	// before it exits the enclave to sleep.
	DefaultMutexSpinCycles = 4000
)

// CostModel converts simulated SGX operations into wall-time charges.
// The zero value charges nothing; use DefaultCostModel for a calibrated
// model or ZeroCostModel to make the simulator free (unit tests).
type CostModel struct {
	// FrequencyGHz converts cycles to nanoseconds.
	FrequencyGHz float64

	// TimeScale uniformly scales every charge. 1.0 reproduces hardware
	// magnitudes; benchmarks may shrink it to finish sweeps faster
	// (relative shapes are preserved).
	TimeScale float64

	// CrossCycles is charged per boundary crossing (enter or exit).
	CrossCycles uint64

	// CopyCyclesPerByte is the SDK marshalling copy charge while the
	// payload fits in CopyHotBytes.
	CopyCyclesPerByte float64

	// CopyCyclesPerByteCold applies to payload bytes beyond CopyHotBytes.
	CopyCyclesPerByteCold float64

	// CopyHotBytes is the L1-resident copy threshold.
	CopyHotBytes int

	// RandCyclesPerBlock is charged per RandBlockBytes of trusted RNG
	// output.
	RandCyclesPerBlock uint64

	// RandBlockBytes is the trusted RNG block granularity.
	RandBlockBytes int

	// MutexSpinCycles is the bounded spin of Mutex before the sleep path.
	MutexSpinCycles uint64
}

// DefaultCostModel returns the calibrated model matching the paper's
// evaluation hardware.
func DefaultCostModel() *CostModel {
	return &CostModel{
		FrequencyGHz:          DefaultFrequencyGHz,
		TimeScale:             1.0,
		CrossCycles:           DefaultCrossCycles,
		CopyCyclesPerByte:     DefaultCopyCyclesPerByte,
		CopyCyclesPerByteCold: DefaultCopyCyclesPerByteCold,
		CopyHotBytes:          DefaultL1CacheBytes,
		RandCyclesPerBlock:    DefaultRandCyclesPerBlock,
		RandBlockBytes:        DefaultRandBlockBytes,
		MutexSpinCycles:       DefaultMutexSpinCycles,
	}
}

// ZeroCostModel returns a model where every simulated operation is free.
// Functional unit tests use it to exercise logic without burning time.
func ZeroCostModel() *CostModel {
	return &CostModel{FrequencyGHz: DefaultFrequencyGHz, TimeScale: 0}
}

// CyclesToDuration converts a cycle count to wall time under the model.
func (m *CostModel) CyclesToDuration(cycles float64) time.Duration {
	if m == nil || m.TimeScale <= 0 || m.FrequencyGHz <= 0 {
		return 0
	}
	return time.Duration(cycles * m.TimeScale / m.FrequencyGHz)
}

// ChargeCycles burns wall time equivalent to the given cycle count.
func (m *CostModel) ChargeCycles(cycles float64) {
	Spin(m.CyclesToDuration(cycles))
}

// CopyCycles returns the marshalling cycle cost for copying n bytes
// across the enclave boundary, modelling the L1 knee.
func (m *CostModel) CopyCycles(n int) float64 {
	if m == nil || n <= 0 {
		return 0
	}
	hot := n
	cold := 0
	if m.CopyHotBytes > 0 && n > m.CopyHotBytes {
		hot = m.CopyHotBytes
		cold = n - m.CopyHotBytes
	}
	return float64(hot)*m.CopyCyclesPerByte + float64(cold)*m.CopyCyclesPerByteCold
}

// RandCycles returns the trusted-RNG cycle cost of producing n bytes.
func (m *CostModel) RandCycles(n int) float64 {
	if m == nil || n <= 0 || m.RandCyclesPerBlock == 0 {
		return 0
	}
	block := m.RandBlockBytes
	if block <= 0 {
		block = DefaultRandBlockBytes
	}
	blocks := (n + block - 1) / block
	return float64(blocks) * float64(m.RandCyclesPerBlock)
}

// Spin busy-waits for d. Unlike time.Sleep it has nanosecond-scale
// resolution, which the transition charges (~2.5 µs) require.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) { //nolint:revive // intentional busy wait
	}
}
