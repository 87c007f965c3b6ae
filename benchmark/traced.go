package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/trace"
	"github.com/eactors/eactors-go/internal/xmpp"
)

// The traced run yields the per-layer numbers. It is one process doing
// three things in a row:
//
//  1. a reference window on an untraced deployment,
//  2. the traced window on a deployment with Options.Trace, Profile and
//     Telemetry armed, with the layers' public counters read around it,
//  3. the timed probes of probes.go.
//
// The ratio of the two windows' throughput is the tracing overhead. End-
// to-end metrics never come from here.

// tracedSampleEvery roots one trace per this many inbound bursts in the
// traced window; the default 1-in-64 leaves a short lockstep window with
// too few spans of the rarer kinds for a median.
const tracedSampleEvery = 8

func sampleEvery(e env) int {
	if e.traced {
		return tracedSampleEvery
	}
	return 0
}

// layers are the handles a started workload exposes for the traced
// run; what a workload does not have stays nil.
type layers struct {
	rt       *core.Runtime
	tracer   *trace.Tracer
	profile  func() profile.Model
	store    *pos.ShardedStore
	sessions []*kv.PipelinedClient
	kvStats  func() kv.Stats
	xmpp     func() xmpp.Stats
}

// cumulative reads every monotonic counter the layers export, under the
// per-layer metric it feeds; the traced window reports end − begin.
func (l layers) cumulative() map[string]float64 {
	c := map[string]float64{}
	ps := l.rt.Platform().Snapshot()
	c["sgx.crossings"] = float64(ps.Crossings)
	c["sgx.copied_bytes"] = float64(ps.CopiedBytes)
	c["sgx.rand_bytes"] = float64(ps.RandBytes)
	c["sgx.evicted_pages"] = float64(ps.EvictedPages)
	c["sgx.crossings_avoided"] = float64(ps.CrossingsAvoided)
	for _, ch := range l.rt.Report().Channels {
		c["core.msgs"] += float64(ch.Stats.AToB + ch.Stats.BToA)
		c["core.send_failures"] += float64(ch.Stats.SendFailures)
	}
	if l.store != nil {
		st := l.store.Stats()
		c["pos.hits"] = float64(st.Hits)
		c["pos.misses"] = float64(st.Misses)
		c["pos.flushes"] = float64(st.Flushes)
		c["pos.flushed_ops"] = float64(st.FlushedOps)
		c["pos.cleaned"] = float64(st.Store.Cleaned)
	}
	for _, s := range l.sessions {
		c["transport.resent"] += float64(s.Stats().Resent)
	}
	if l.kvStats != nil {
		st := l.kvStats()
		c["kv.replayed"] = float64(st.Replayed)
		c["kv.sets"] = float64(st.Sets)
	}
	if l.xmpp != nil {
		c["xmpp.routed"] = float64(l.xmpp().Routed)
	}
	if l.profile != nil {
		for _, a := range l.profile().Actors {
			c["actor_ns."+actorRole(a.Name)] += float64(a.InvokeNs)
		}
	}
	return c
}

// actorRole maps an actor name onto the metric-name alphabet and folds
// the instances of one role ("kvstore-0", "kvstore-1") together.
func actorRole(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 && strings.Trim(name[i+1:], "0123456789") == "" {
		name = name[:i]
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, name)
}

// tracedKinds are the span kinds folded into trace.<kind>_p50_us rows.
var tracedKinds = []trace.Kind{
	trace.KindNetRead, trace.KindDwell, trace.KindSeal, trace.KindCrossing, trace.KindOpen,
	trace.KindInvoke, trace.KindPOSGet, trace.KindPOSSet, trace.KindPOSSync, trace.KindNetWrite,
}

// spanKey identifies a span across the snapshots taken during the
// window: the tracer keeps a ring per worker, so the same span shows up
// in several snapshots until it is overwritten.
type spanKey struct {
	trace uint64
	id    uint32
}

// observer collects what the traced window reads on the side.
type observer struct {
	l        layers
	begin    map[string]float64
	end      map[string]float64
	poolFree []float64
	freeRegs []float64
	spans    map[spanKey]trace.Span
}

func (ob *observer) hooks() *windowHooks {
	return &windowHooks{
		begin: func() { ob.begin = ob.l.cumulative() },
		slice: ob.sample,
		end:   func() { ob.end = ob.l.cumulative() },
	}
}

// sample reads the gauges and drains the span rings at a slice boundary.
func (ob *observer) sample() {
	ob.poolFree = append(ob.poolFree, float64(ob.l.rt.Pool().Free()))
	if ob.l.store != nil {
		ob.freeRegs = append(ob.freeRegs, float64(ob.l.store.Stats().Store.FreeRegions))
	}
	for _, s := range ob.l.tracer.Snapshot() { // a nil tracer has no spans
		ob.spans[spanKey{s.TraceID, s.ID}] = s
	}
}

func (ob *observer) delta(name string) float64 { return ob.end[name] - ob.begin[name] }

// tracedRun produces every per-layer metric of one workload.
func tracedRun(wl *workloadDef, o options, win time.Duration) (result, []string, error) {
	part := win / 4
	e := env{seed: o.seed, scratch: o.scratch}

	// 1. Untraced reference.
	ref, err := wl.start(e)
	if err != nil {
		return result{}, nil, err
	}
	untraced := measure(ref, warmup(part), part, nil)
	ra, rf := ref.verify()
	ref.stop()

	// 2. Traced window.
	e.traced = true
	inst, err := wl.start(e)
	if err != nil {
		return result{}, nil, err
	}
	ob := &observer{l: inst.layers(), spans: map[spanKey]trace.Span{}}
	traced := measure(inst, warmup(part), part, ob.hooks())
	va, vf := inst.verify()
	maxInflight := 0.0
	for _, s := range ob.l.sessions {
		maxInflight = max(maxInflight, float64(s.Stats().MaxInFlightBytes))
	}
	notes := traced.notes()
	if note, err := writeSpans(o.out, wl.Name, ob); err != nil {
		inst.stop()
		return result{}, nil, err
	} else if note != "" {
		notes = append(notes, note)
	}
	inst.stop()

	ops := traced.ops
	v := map[string]float64{
		"traced.ops_per_s":     traced.opsPerS,
		"traced.lat_p50_us":    traced.p50Us,
		"trace.overhead_ratio": ratio(traced.opsPerS, untraced.opsPerS),

		"sgx.crossings_per_op":         perOp(ob.delta("sgx.crossings"), ops),
		"sgx.copied_bytes_per_op":      perOp(ob.delta("sgx.copied_bytes"), ops),
		"sgx.rand_bytes_per_op":        perOp(ob.delta("sgx.rand_bytes"), ops),
		"sgx.evicted_pages":            ob.delta("sgx.evicted_pages"),
		"sgx.crossings_avoided_per_op": perOp(ob.delta("sgx.crossings_avoided"), ops),

		"core.msgs_per_op":          perOp(ob.delta("core.msgs"), ops),
		"core.send_failures_per_op": perOp(ob.delta("core.send_failures"), ops),
		"core.pool_free_min":        minOf(ob.poolFree),

		"pos.cache_hit_ratio":     ratio(ob.delta("pos.hits"), ob.delta("pos.hits")+ob.delta("pos.misses")),
		"pos.flushes":             ob.delta("pos.flushes"),
		"pos.flushed_ops_per_set": ratio(ob.delta("pos.flushed_ops"), ob.delta("kv.sets")),
		"pos.cleaned":             ob.delta("pos.cleaned"),
		"pos.free_regions_min":    minOf(ob.freeRegs),

		"transport.resent_per_op":      perOp(ob.delta("transport.resent"), ops),
		"transport.max_inflight_bytes": maxInflight,
		"kv.replayed_per_op":           perOp(ob.delta("kv.replayed"), ops),
		"xmpp.routed_per_op":           perOp(ob.delta("xmpp.routed"), ops),
	}
	for name := range ob.end {
		if role, ok := strings.CutPrefix(name, "actor_ns."); ok {
			v["core.actor_cpu_us_per_op."+role] = perOp(ob.delta(name)/1e3, ops)
		}
	}
	byKind := map[trace.Kind][]float64{}
	for _, s := range ob.spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(s.Dur)/1e3)
	}
	for _, k := range tracedKinds {
		v["trace."+k.String()+"_p50_us"] = median(byKind[k])
	}

	// 3. Probes.
	pc := &probeCtx{
		budget:  win / 2 / time.Duration(len(probes)),
		sh:      wl.shape,
		scratch: o.scratch,
		extra:   v,
	}
	for _, p := range probes {
		if v[p.metric], err = p.run(pc); err != nil {
			return result{}, nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
	}

	b := wl.budget
	v["budget.explained_us"] = b.rtts*v["transport.rtt_us"] + b.wakes*v["core.wake_us"] +
		(b.plainHops*v["core.hop_plain_ns"]+b.encHops*v["core.hop_enc_ns"]+
			b.posGets*v["pos.get_ns"]+b.posSets*v["pos.set_ns"]+b.codecs*v["kv.codec_ns_per_req"]+
			b.scans*v["xmpp.stanza_scan_ns"]+b.onlineGets*v["xmpp.online_get_ns"]+
			b.randKiB*v["sgx.rand_ns_per_kb"])/1e3
	v["budget.unaccounted_us"] = traced.p50Us - v["budget.explained_us"]
	v["kv.svc_over_echo_us"] = traced.p50Us - v["netactors.echo_rtt_us"]

	// Rows of this run that BENCHMARK.json does not list (the actors a
	// workload happens to have) are printed, not reported.
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.Name] = true
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = 0 // a layer this workload does not have
		}
	}
	for _, name := range sortedKeys(v) {
		if !listed[name] {
			notes = append(notes, fmt.Sprintf("%s %.4f", name, v[name]))
		}
	}
	notes = append(notes, fmt.Sprintf("untraced reference: %.1f ops/s, lat_p50 %.1f us", untraced.opsPerS, untraced.p50Us))

	attempted := untraced.ops + untraced.failed + ra + traced.ops + traced.failed + va
	return finish(attempted, untraced.failed+rf+traced.failed+vf, v, perLayer), notes, nil
}

// writeSpans writes the spans kept in memory during the window as
// <workload>.trace.json (Chrome trace format) into dir.
func writeSpans(dir, workload string, ob *observer) (note string, err error) {
	if ob.l.tracer == nil {
		return "no trace file: the deployment has no tracer", nil
	}
	spans := make([]trace.Span, 0, len(ob.spans))
	for _, s := range ob.spans {
		spans = append(spans, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteChromeSpans(f, spans, ob.l.tracer); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d spans written to %s", len(spans), path), nil
}
