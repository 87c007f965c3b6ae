package core

import (
	"sort"

	"github.com/eactors/eactors-go/internal/sgx"
)

// Report is a point-in-time introspection snapshot of a runtime:
// deployment shape, traffic and simulator counters, and failures. It is
// what an operator dashboard (or the xmppserver stats loop) renders.
type Report struct {
	// Workers describes each worker and its eactors.
	Workers []WorkerReport
	// Channels carries per-channel traffic counters.
	Channels []ChannelReport
	// Enclaves lists the enclaves and their private pools.
	Enclaves []EnclaveReport
	// FailedActors lists eactors parked after a body panic.
	FailedActors []string
	// PublicPoolFree is the free-node count of the shared pool.
	PublicPoolFree int
	// Platform is the SGX simulator counter snapshot.
	Platform sgx.Stats
}

// WorkerReport describes one worker. The latency fields are read from
// the telemetry registry's per-worker body-invocation histogram and stay
// zero when Config.Telemetry is off — the report and the registry share
// the same underlying instruments, so the two never disagree.
type WorkerReport struct {
	ID        int
	Actors    []string
	Crossings uint64

	// Invocations counts completed body invocations (telemetry only).
	Invocations uint64
	// InvokeP50Ns / InvokeP99Ns are body-invocation latency quantiles in
	// nanoseconds (telemetry only; bucketed, so upper-bound estimates).
	InvokeP50Ns uint64
	InvokeP99Ns uint64
}

// ChannelReport describes one channel's traffic. The latency quantiles
// come from the channel's sampled send histogram in the telemetry
// registry and stay zero when Config.Telemetry is off.
type ChannelReport struct {
	Name      string
	A, B      string
	Encrypted bool
	Stats     ChannelStats

	// SendP50Ns / SendP99Ns are send-operation latency quantiles in
	// nanoseconds, sampled 1 in 16 (telemetry only).
	SendP50Ns uint64
	SendP99Ns uint64
}

// EnclaveReport describes one enclave.
type EnclaveReport struct {
	Name string
	// PrivatePoolFree is -1 when the enclave has no private pool.
	PrivatePoolFree int
}

// Report builds an introspection snapshot. Counter reads are atomic but
// the snapshot as a whole is not; it is meant for monitoring, not
// coordination.
func (rt *Runtime) Report() Report {
	r := Report{
		FailedActors:   rt.FailedActors(),
		PublicPoolFree: rt.pool.Free(),
		Platform:       rt.platform.Snapshot(),
	}
	for _, w := range rt.workers {
		wr := WorkerReport{
			ID:        w.ID(),
			Actors:    w.Actors(),
			Crossings: w.Context().Crossings(),
		}
		if rt.m != nil {
			snap := rt.m.invokeNs[w.ID()].Snapshot()
			wr.Invocations = snap.Count
			wr.InvokeP50Ns = snap.Quantile(0.50)
			wr.InvokeP99Ns = snap.Quantile(0.99)
		}
		r.Workers = append(r.Workers, wr)
	}
	for name, ch := range rt.channels {
		cr := ChannelReport{
			Name: name, A: ch.a, B: ch.b,
			Encrypted: ch.encrypted,
			Stats:     ch.Stats(),
		}
		if rt.m != nil {
			snap := ch.epA.sendNs.Snapshot()
			cr.SendP50Ns = snap.Quantile(0.50)
			cr.SendP99Ns = snap.Quantile(0.99)
		}
		r.Channels = append(r.Channels, cr)
	}
	sort.Slice(r.Channels, func(i, j int) bool { return r.Channels[i].Name < r.Channels[j].Name })
	for name := range rt.enclaves {
		er := EnclaveReport{
			Name:            name,
			PrivatePoolFree: -1,
		}
		if p, ok := rt.privatePools[name]; ok {
			er.PrivatePoolFree = p.Free()
		}
		r.Enclaves = append(r.Enclaves, er)
	}
	sort.Slice(r.Enclaves, func(i, j int) bool { return r.Enclaves[i].Name < r.Enclaves[j].Name })
	return r
}
