package core

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
)

// MonitorSpec returns the MONITOR system eactor: a query/response service
// over ordinary channels, so any eactor — trusted or not — can inspect the
// running system through the same uniform communication primitive it uses
// for everything else (the paper's system-eactor pattern, Section 4).
//
// Wire a channel from any eactor to the monitor and send it one of the
// plain-text queries below; the answer comes back on the same channel,
// truncated to the channel's MaxPayload.
//
//	stats          totals and latency quantiles of every registered metric
//	rates          per-second rates of the headline counters since the
//	               previous rates query
//	report         deployment snapshot: workers, channels, enclaves,
//	               failed actors
//	dump           the system flight recorder (evictions, background events)
//	dump <worker>  worker <worker>'s flight recorder, oldest first
//	dump <actor>   the dump captured when <actor>'s body last panicked
//	               (kept after a supervised restart)
//	trace          the most recent sampled traces (up to 3), each as a
//	               per-hop latency breakdown; needs Config.Trace, not
//	               Config.Telemetry
//	trace <n>      up to <n> most recent traces
//	profile        per-actor cost profiles, communication edges and
//	               per-enclave EPC attribution; needs Config.Profile,
//	               not Config.Telemetry
//
// The monitor is an ordinary eactor: place it on a lightly loaded worker
// and, if its answers must be confidential, inside an enclave (set
// Spec.Enclave on the returned value) — queries then travel encrypted
// like any cross-enclave traffic.
func MonitorSpec(name string, worker int) Spec {
	return Spec{
		Name:   name,
		Worker: worker,
		State:  &monitorState{meters: make(map[string]*telemetry.Meter)},
		Body:   monitorBody,
	}
}

type monitorState struct {
	meters map[string]*telemetry.Meter
	req    []byte
}

// rateCounters are the headline counters the rates query reports.
var rateCounters = []string{
	"eactors_worker_invocations",
	"eactors_channel_msgs_sent",
	"eactors_channel_msgs_recv",
	"eactors_sgx_crossings",
}

func monitorBody(self *Self) {
	st := self.State.(*monitorState)
	for _, ep := range self.Endpoints() {
		if cap(st.req) < ep.MaxPayload() {
			st.req = make([]byte, ep.MaxPayload())
		}
		for {
			n, ok, err := ep.Recv(st.req[:ep.MaxPayload()])
			if !ok {
				break
			}
			self.Progress()
			if err != nil {
				continue
			}
			reply := st.answer(self, strings.TrimSpace(string(st.req[:n])))
			if len(reply) > ep.MaxPayload() {
				reply = reply[:ep.MaxPayload()]
			}
			// A full reply direction drops the answer; the client's next
			// query gets a fresh one. Monitoring must never block.
			_ = ep.Send(reply) //sendcheck:ok
		}
	}
}

func (st *monitorState) answer(self *Self, query string) []byte {
	var buf bytes.Buffer
	cmd, arg, _ := strings.Cut(query, " ")
	if cmd == "trace" {
		// Tracing is independent of telemetry, so the verb answers even
		// when the registry is off.
		writeTraces(&buf, self.Runtime(), strings.TrimSpace(arg))
		return buf.Bytes()
	}
	if cmd == "profile" {
		// Profiling is likewise independent of telemetry.
		writeProfile(&buf, self.Runtime())
		return buf.Bytes()
	}
	reg := self.Runtime().Telemetry()
	if reg == nil {
		return []byte("error: telemetry disabled (set Config.Telemetry)")
	}
	switch cmd {
	case "stats":
		reg.WriteSummary(&buf)
	case "rates":
		now := time.Now()
		for _, name := range rateCounters {
			total, ok := reg.CounterValue(name)
			if !ok {
				continue
			}
			m := st.meters[name]
			if m == nil {
				m = &telemetry.Meter{}
				st.meters[name] = m
			}
			fmt.Fprintf(&buf, "%s/s %.1f\n", name, m.Update(total, now))
		}
	case "report":
		writeReport(&buf, self.Runtime().Report())
	case "dump":
		st.writeDump(&buf, self, strings.TrimSpace(arg))
	default:
		fmt.Fprintf(&buf, "error: unknown query %q (stats|rates|report|dump [worker|actor]|trace [n]|profile)", query)
	}
	return buf.Bytes()
}

func (st *monitorState) writeDump(buf *bytes.Buffer, self *Self, arg string) {
	rt := self.Runtime()
	reg := rt.Telemetry()
	switch {
	case arg == "":
		buf.WriteString(telemetry.FormatDump(reg.SystemRecorder().Dump(0)))
	default:
		if w, err := strconv.Atoi(arg); err == nil && w >= 0 && w < len(rt.workers) {
			buf.WriteString(telemetry.FormatDump(reg.Recorder(w).Dump(0)))
			return
		}
		if dump := rt.ActorFlightDump(arg); dump != nil {
			buf.WriteString(telemetry.FormatDump(dump))
			return
		}
		fmt.Fprintf(buf, "error: %q is neither a worker index nor an actor that failed", arg)
	}
}

// writeTraces renders the tracer's most recent sampled traces as per-hop
// latency breakdowns, newest first. arg optionally bounds the trace count
// (default 3 — monitor replies are truncated to MaxPayload, so small
// defaults keep whole traces intact).
func writeTraces(buf *bytes.Buffer, rt *Runtime, arg string) {
	tr := rt.Tracer()
	if tr == nil {
		buf.WriteString("error: tracing disabled (set Config.Trace)")
		return
	}
	max := 3
	if n, err := strconv.Atoi(arg); err == nil && n > 0 {
		max = n
	}
	spans := tr.Snapshot()
	if len(spans) == 0 {
		buf.WriteString("no sampled traces recorded yet")
		return
	}
	groups := make(map[uint64][]trace.Span)
	for _, s := range spans {
		groups[s.TraceID] = append(groups[s.TraceID], s)
	}
	ids := make([]uint64, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	// Newest trace first, where "newest" is the earliest span's start —
	// torn ring slots can carry garbage timestamps, but they only mis-rank
	// their own trace.
	sort.Slice(ids, func(i, j int) bool {
		return traceStart(groups[ids[i]]) > traceStart(groups[ids[j]])
	})
	if len(ids) > max {
		ids = ids[:max]
	}
	for _, id := range ids {
		ss := groups[id]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		root := ss[0].Start
		var end int64
		for _, s := range ss {
			if e := s.Start + s.Dur; e > end {
				end = e
			}
		}
		fmt.Fprintf(buf, "trace %d spans=%d total=%s\n", id, len(ss), time.Duration(end-root))
		for _, s := range ss {
			name := s.Kind.String()
			if rn := tr.RefName(s.Kind, s.Ref); rn != "" {
				name += " " + rn
			}
			fmt.Fprintf(buf, "  +%-12s %-28s worker=%-2d dur=%s\n",
				time.Duration(s.Start-root), name, s.Worker, time.Duration(s.Dur))
		}
	}
}

// writeProfile renders the cost profile in the monitor's line-oriented
// text form: one line per actor (hottest first — the snapshot orders
// edges, actors keep config order so lines are stable), the traffic
// edges and the enclave attribution.
func writeProfile(buf *bytes.Buffer, rt *Runtime) {
	if !rt.ProfileEnabled() {
		buf.WriteString("error: profiling disabled (set Config.Profile)")
		return
	}
	m := rt.CostProfile()
	for _, a := range m.Actors {
		fmt.Fprintf(buf, "actor %s worker=%d", a.Name, a.Worker)
		if a.Enclave != "" {
			fmt.Fprintf(buf, " enclave=%s", a.Enclave)
		}
		fmt.Fprintf(buf, " inv=%d invoke_ns=%d sent=%d recv=%d crossings=%d seal=%d/%dB open=%d/%dB",
			a.Invocations, a.InvokeNs, a.MsgsSent, a.MsgsRecv, a.Crossings,
			a.SealOps, a.SealBytes, a.OpenOps, a.OpenBytes)
		if a.DwellSamples > 0 {
			fmt.Fprintf(buf, " dwell_mean=%s", time.Duration(a.DwellNs/a.DwellSamples))
		}
		buf.WriteByte('\n')
	}
	for _, e := range m.Edges {
		fmt.Fprintf(buf, "edge %s->%s channel=%s msgs=%d bytes=%d\n", e.Src, e.Dst, e.Channel, e.Msgs, e.Bytes)
	}
	for _, e := range m.Enclaves {
		fmt.Fprintf(buf, "enclave %s pages=%d evicted=%d crossings=%d\n",
			e.Name, e.PagesResident, e.EvictedPages, e.Crossings)
	}
}

// traceStart returns a trace group's earliest span start.
func traceStart(ss []trace.Span) int64 {
	start := ss[0].Start
	for _, s := range ss[1:] {
		if s.Start < start {
			start = s.Start
		}
	}
	return start
}

// writeReport renders a Report in the monitor's line-oriented text form.
func writeReport(buf *bytes.Buffer, r Report) {
	for _, w := range r.Workers {
		fmt.Fprintf(buf, "worker %d actors=%s crossings=%d invocations=%d invoke_p50=%dns invoke_p99=%dns\n",
			w.ID, strings.Join(w.Actors, ","), w.Crossings, w.Invocations, w.InvokeP50Ns, w.InvokeP99Ns)
	}
	for _, ch := range r.Channels {
		fmt.Fprintf(buf, "channel %s a2b=%d b2a=%d failures=%d pending=%d send_p50=%dns send_p99=%dns\n",
			ch.Name, ch.Stats.AToB, ch.Stats.BToA, ch.Stats.SendFailures, ch.Stats.Pending, ch.SendP50Ns, ch.SendP99Ns)
	}
	for _, e := range r.Enclaves {
		fmt.Fprintf(buf, "enclave %s pages=%d private_pool_free=%d\n", e.Name, e.PagesResident, e.PrivatePoolFree)
	}
	fmt.Fprintf(buf, "pool_free %d\n", r.PublicPoolFree)
	fmt.Fprintf(buf, "sgx crossings=%d ecalls=%d ocalls=%d copied=%d evicted=%d\n",
		r.Platform.Crossings, r.Platform.ECalls, r.Platform.OCalls, r.Platform.CopiedBytes, r.Platform.EvictedPages)
	if len(r.FailedActors) > 0 {
		fmt.Fprintf(buf, "failed %s\n", strings.Join(r.FailedActors, ","))
	}
}
