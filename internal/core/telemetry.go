package core

import (
	"fmt"

	"github.com/eactors/eactors-go/internal/telemetry"
)

// metrics is the runtime's instrument set, allocated only when
// Config.Telemetry is set. Every field is nil-safe through the
// instruments' nil-receiver no-ops, but the hot paths additionally gate
// on the single `m != nil` check so the disabled case costs one branch,
// not a dozen.
type metrics struct {
	reg *telemetry.Registry

	// Worker-side.
	invocations  *telemetry.Counter     // body invocations, sharded per worker
	invokeNs     []*telemetry.Histogram // per-worker body-invoke latency
	drainExhaust *telemetry.Counter     // invocations that consumed their whole drain budget
	idles        *telemetry.Counter     // worker transitions into the idle wait
	wakes        *telemetry.Counter     // doorbell wakeups out of the idle wait
	parks        *telemetry.Counter     // actors parked after a body panic

	// Channel-side. Traffic totals (msgs sent/recv, send failures) are
	// NOT duplicated here: the endpoint atomics remain the single source
	// of truth and registerRuntimeFuncs sums them at read time, so the
	// per-message fast path pays nothing for them.
	sendBatch *telemetry.Histogram // SendBatch burst sizes
	recvBatch *telemetry.Histogram // RecvBatch burst sizes
	sealNs    *telemetry.Histogram // in-channel payload seal time (sampled)
	openNs    *telemetry.Histogram // in-channel payload open time (sampled)
}

// latencySampleMask subsamples the per-operation clock reads on the
// channel hot path: 1 in 16 operations pays the two time.Now calls that
// feed the latency histograms, keeping the amortised overhead well under
// the ≤10% budget while the counters (one sharded atomic add) stay
// exact. The endpoint's tick counter is owner-thread-local, so sampling
// costs no synchronisation.
const latencySampleMask = 15

func newMetrics(reg *telemetry.Registry, workers int) *metrics {
	m := &metrics{
		reg:          reg,
		invocations:  reg.Counter("eactors_worker_invocations", "eactor body invocations"),
		drainExhaust: reg.Counter("eactors_worker_drain_exhausted", "invocations that consumed the whole RecvBatch drain budget"),
		idles:        reg.Counter("eactors_worker_idle", "worker transitions into the doorbell idle wait"),
		wakes:        reg.Counter("eactors_worker_wakes", "doorbell wakeups out of the idle wait"),
		parks:        reg.Counter("eactors_parks", "eactors parked after a body panic"),
		sendBatch:    reg.Histogram("eactors_channel_send_batch_size", "SendBatch burst sizes", "msgs"),
		recvBatch:    reg.Histogram("eactors_channel_recv_batch_size", "RecvBatch burst sizes", "msgs"),
		sealNs:       reg.Histogram("eactors_channel_seal_ns", "per-payload channel seal time, sampled 1/16", "ns"),
		openNs:       reg.Histogram("eactors_channel_open_ns", "per-payload channel open time, sampled 1/16", "ns"),
	}
	m.invokeNs = make([]*telemetry.Histogram, workers)
	for i := range m.invokeNs {
		m.invokeNs[i] = reg.Histogram(
			fmt.Sprintf("eactors_worker_invoke_ns{worker=%q}", fmt.Sprint(i)),
			"eactor body invocation latency", "ns")
	}
	return m
}

// registerRuntimeFuncs exposes the runtime's pre-existing sources of
// truth — endpoint traffic atomics, pool occupancy, platform simulator
// counters — as read-time metrics. Report() and /metrics therefore read
// the same underlying state; telemetry never duplicates these counters.
func (rt *Runtime) registerRuntimeFuncs() {
	reg := rt.tel
	pool := rt.pool
	// Aggregate channel traffic, summed over the endpoint atomics at
	// scrape time (the channel set is immutable after NewRuntime).
	reg.CounterFunc("eactors_channel_msgs_sent", "messages enqueued on channels",
		func() uint64 {
			var n uint64
			for _, ch := range rt.channels {
				n += ch.epA.sent.Load() + ch.epB.sent.Load()
			}
			return n
		})
	reg.CounterFunc("eactors_channel_msgs_recv", "messages dequeued from channels",
		func() uint64 {
			var n uint64
			for _, ch := range rt.channels {
				n += ch.epA.received.Load() + ch.epB.received.Load()
			}
			return n
		})
	reg.CounterFunc("eactors_channel_send_failures", "sends rejected by a full mbox or empty pool",
		func() uint64 {
			var n uint64
			for _, ch := range rt.channels {
				n += ch.epA.sendFailures.Load() + ch.epB.sendFailures.Load()
			}
			return n
		})
	reg.GaugeFunc("eactors_pool_free", "free nodes in the shared public pool",
		func() uint64 { return uint64(pool.Free()) })
	for name, p := range rt.privatePools {
		p := p
		reg.GaugeFunc(fmt.Sprintf("eactors_private_pool_free{enclave=%q}", name),
			"free nodes in an enclave's private pool",
			func() uint64 { return uint64(p.Free()) })
	}
	reg.GaugeFunc("eactors_failed_actors", "eactors currently parked after a body panic",
		func() uint64 {
			rt.failedMu.Lock()
			defer rt.failedMu.Unlock()
			return uint64(len(rt.failed))
		})
	if rt.flt != nil {
		flt := rt.flt
		reg.CounterFunc("eactors_faults_injected", "faults fired by the configured injector",
			func() uint64 { return flt.Injected() })
	}
}

// registerChannelFuncs exposes one channel's traffic counters (the
// endpoint atomics Report() also reads) as labelled series.
func (rt *Runtime) registerChannelFuncs(ch *Channel) {
	reg := rt.tel
	label := fmt.Sprintf("{channel=%q}", ch.name)
	reg.CounterFunc("eactors_channel_sent_a2b"+label, "messages sent A to B",
		func() uint64 { return ch.epA.sent.Load() })
	reg.CounterFunc("eactors_channel_sent_b2a"+label, "messages sent B to A",
		func() uint64 { return ch.epB.sent.Load() })
	reg.CounterFunc("eactors_channel_failures"+label, "send failures on the channel",
		func() uint64 { return ch.epA.sendFailures.Load() + ch.epB.sendFailures.Load() })
	reg.GaugeFunc("eactors_channel_pending"+label, "messages queued on the channel",
		func() uint64 { return uint64(ch.ab.Len() + ch.ba.Len()) })
}

// Telemetry returns the runtime's registry, or nil when Config.Telemetry
// was not set. The HTTP handler (telemetry.Serve) and instrumented
// subsystems hang off this.
func (rt *Runtime) Telemetry() *telemetry.Registry { return rt.tel }

// ActorFlightDump returns the flight-recorder dump captured when the
// named actor's body last panicked: the final events of the owning
// worker up to and including the park. It is nil for an actor that
// never failed or when telemetry is disabled.
func (rt *Runtime) ActorFlightDump(name string) []telemetry.Event {
	inst, ok := rt.actors[name]
	if !ok {
		return nil
	}
	if dump := inst.dump.Load(); dump != nil {
		return *dump
	}
	return nil
}
