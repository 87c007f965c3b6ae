package sgx

import (
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/telemetry"
)

// platformTelemetry bundles the instruments a Platform reports through
// once AttachTelemetry has been called. The simulator's own counters stay
// the single source of truth — the registry reads them through
// CounterFunc/GaugeFunc adapters at scrape time — so attaching telemetry
// adds no second set of bookkeeping atomics. Only the latency histograms
// are written from the charge paths, behind one atomic pointer load that
// is nil when telemetry is off.
type platformTelemetry struct {
	reg      *telemetry.Registry
	crossNs  *telemetry.Histogram
	sealOps  *telemetry.Counter
	sealNs   *telemetry.Histogram
	unsealNs *telemetry.Histogram
}

// AttachTelemetry exposes the platform's simulator counters through reg
// and begins observing crossing and seal costs. It is typically called
// once by the core runtime before enclaves are created; enclaves created
// later register their page gauges on creation.
func (p *Platform) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &platformTelemetry{
		reg:      reg,
		crossNs:  reg.Histogram("eactors_sgx_crossing_ns", "charged cost of one boundary crossing", "ns"),
		sealOps:  reg.Counter("eactors_sgx_seal_ops", "enclave Seal/Unseal operations"),
		sealNs:   reg.Histogram("eactors_sgx_seal_ns", "Enclave.Seal latency", "ns"),
		unsealNs: reg.Histogram("eactors_sgx_unseal_ns", "Enclave.Unseal latency", "ns"),
	}
	reg.CounterFunc("eactors_sgx_crossings", "boundary crossings (each enter or exit is one)", p.crossings.Load)
	reg.CounterFunc("eactors_sgx_ecalls", "ECall round trips", p.ecalls.Load)
	reg.CounterFunc("eactors_sgx_ocalls", "OCall round trips", p.ocalls.Load)
	reg.CounterFunc("eactors_sgx_copied_bytes", "bytes marshalled across the boundary", p.copiedBytes.Load)
	reg.CounterFunc("eactors_sgx_evicted_pages", "EPC pages evicted under memory pressure", p.evictedPages.Load)
	reg.CounterFunc("eactors_sgx_rand_bytes", "trusted RNG bytes produced", p.randBytes.Load)
	reg.CounterFunc("eactors_sgx_mutex_sleeps", "mutex acquisitions that took the sleep path", p.mutexSleeps.Load)
	reg.CounterFunc("eactors_sgx_tcs_overflows", "enclave entries beyond the thread slots", p.tcsOverflows.Load)
	reg.GaugeFunc("eactors_sgx_epc_used_pages", "EPC pages currently resident", func() uint64 {
		return uint64(p.epcUsed.Load())
	})
	reg.GaugeFunc("eactors_sgx_epc_budget_pages", "total EPC budget in pages", func() uint64 {
		return uint64(p.epcPages)
	})
	p.mu.RLock()
	existing := make([]*Enclave, 0, len(p.enclaves))
	for _, e := range p.enclaves {
		existing = append(existing, e)
	}
	p.mu.RUnlock()
	p.tel.Store(t)
	for _, e := range existing {
		t.registerEnclaveGauge(e)
	}
}

// registerEnclaveGauge publishes an enclave's resident-page count.
func (t *platformTelemetry) registerEnclaveGauge(e *Enclave) {
	t.reg.GaugeFunc(
		fmt.Sprintf("eactors_sgx_enclave_pages{enclave=%q}", e.name),
		"EPC pages accounted to the enclave",
		func() uint64 { return uint64(e.pages.Load()) })
}

// sealOpStart returns the timestamp to measure a Seal/Unseal against, or
// the zero time when telemetry is off (which ObserveSince ignores).
func (p *Platform) sealOpStart() time.Time {
	if p.tel.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSealOp records one Seal/Unseal into the platform instruments.
// Seal operations are rare (channel setup, persistence), so a single
// counter shard is contention-free in practice.
func (p *Platform) observeSealOp(unseal bool, start time.Time) {
	t := p.tel.Load()
	if t == nil {
		return
	}
	t.sealOps.Inc(0)
	if unseal {
		t.unsealNs.ObserveSince(start)
	} else {
		t.sealNs.ObserveSince(start)
	}
}
