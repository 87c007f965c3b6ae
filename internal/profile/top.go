package profile

import (
	"fmt"
	"io"
	"sort"

	"github.com/eactors/eactors-go/internal/pollclient"
)

// Fetch polls a /debug/profile endpoint (addr may be a bare host:port,
// a base URL, or the full endpoint) and decodes the snapshot.
func Fetch(addr string) (Model, []byte, error) {
	body, err := pollclient.Get(pollclient.URL(addr, "/debug/profile"))
	if err != nil {
		return Model{}, nil, err
	}
	m, err := Decode(body)
	if err != nil {
		return Model{}, nil, err
	}
	return m, body, nil
}

// topRow is one rendered actor line: deltas between two snapshots.
type topRow struct {
	a       ActorCost
	dInv    uint64
	dNs     uint64 // invoke+seal+open ns delta — the sort key ("cost")
	dSent   uint64
	dRecv   uint64
	dCross  uint64
	dSealB  uint64
	dwellNs uint64 // mean dwell ns over the window's samples
}

func sub(cur, prev uint64) uint64 {
	if cur < prev { // restarted server: treat as fresh totals
		return cur
	}
	return cur - prev
}

// RenderTop writes the eactors top view: a per-actor cost table (rates
// over the window between prev and cur, or cumulative totals when prev
// is zero), the hottest communication edges, and per-enclave crossings.
// Plain text, no terminal control — the caller owns screen handling.
// rows bounds the actor table (0 = all).
func RenderTop(w io.Writer, prev, cur Model, rows int) {
	windowNs := cur.CapturedAtNs - prev.CapturedAtNs
	secs := float64(windowNs) / 1e9
	if prev.CapturedAtNs == 0 || secs <= 0 {
		secs = 0 // totals mode
	}
	prevActors := make(map[string]ActorCost, len(prev.Actors))
	for _, a := range prev.Actors {
		prevActors[a.Name] = a
	}

	list := make([]topRow, 0, len(cur.Actors))
	for _, a := range cur.Actors {
		p := prevActors[a.Name]
		r := topRow{
			a:      a,
			dInv:   sub(a.Invocations, p.Invocations),
			dNs:    sub(a.InvokeNs, p.InvokeNs) + sub(a.SealNs, p.SealNs) + sub(a.OpenNs, p.OpenNs),
			dSent:  sub(a.MsgsSent, p.MsgsSent),
			dRecv:  sub(a.MsgsRecv, p.MsgsRecv),
			dCross: sub(a.Crossings, p.Crossings),
			dSealB: sub(a.SealBytes, p.SealBytes),
		}
		if ds := sub(a.DwellSamples, p.DwellSamples); ds > 0 {
			r.dwellNs = sub(a.DwellNs, p.DwellNs) / ds
		}
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].dNs != list[j].dNs {
			return list[i].dNs > list[j].dNs
		}
		return list[i].a.Name < list[j].a.Name
	})
	if rows > 0 && len(list) > rows {
		list = list[:rows]
	}

	if secs > 0 {
		fmt.Fprintf(w, "window %.1fs · sample 1/%d\n", secs, cur.SampleEvery)
	} else {
		fmt.Fprintf(w, "totals since start · sample 1/%d\n", cur.SampleEvery)
	}
	fmt.Fprintf(w, "%-18s %-10s %3s %10s %7s %10s %10s %8s %10s %9s\n",
		"ACTOR", "ENCLAVE", "W", "INV/s", "CPU%", "SENT/s", "RECV/s", "CROSS/s", "SEAL B/s", "DWELL")
	for _, r := range list {
		rate := func(d uint64) string {
			if secs > 0 {
				return fmt.Sprintf("%.0f", float64(d)/secs)
			}
			return fmt.Sprintf("%d", d)
		}
		cpu := "-"
		if secs > 0 {
			cpu = fmt.Sprintf("%.1f", float64(r.dNs)/float64(windowNs)*100)
		}
		dwell := "-"
		if r.dwellNs > 0 {
			dwell = fmtNs(r.dwellNs)
		}
		fmt.Fprintf(w, "%-18s %-10s %3d %10s %7s %10s %10s %8s %10s %9s\n",
			clip(r.a.Name, 18), clip(r.a.Enclave, 10), r.a.Worker,
			rate(r.dInv), cpu, rate(r.dSent), rate(r.dRecv), rate(r.dCross), rate(r.dSealB), dwell)
	}

	type edgeRow struct {
		e     EdgeCost
		dMsgs uint64
	}
	prevEdges := make(map[string]EdgeCost, len(prev.Edges))
	for _, e := range prev.Edges {
		prevEdges[e.Src+"\x00"+e.Dst+"\x00"+e.Channel] = e
	}
	edges := make([]edgeRow, 0, len(cur.Edges))
	for _, e := range cur.Edges {
		p := prevEdges[e.Src+"\x00"+e.Dst+"\x00"+e.Channel]
		if d := sub(e.Msgs, p.Msgs); d > 0 {
			edges = append(edges, edgeRow{e: e, dMsgs: d})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].dMsgs != edges[j].dMsgs {
			return edges[i].dMsgs > edges[j].dMsgs
		}
		return edges[i].e.Channel < edges[j].e.Channel
	})
	if len(edges) > 0 {
		fmt.Fprintf(w, "\nhottest edges\n")
		n := len(edges)
		if n > 5 {
			n = 5
		}
		for _, er := range edges[:n] {
			if secs > 0 {
				fmt.Fprintf(w, "  %s -> %s  (%s)  %.0f msg/s\n", er.e.Src, er.e.Dst, er.e.Channel, float64(er.dMsgs)/secs)
			} else {
				fmt.Fprintf(w, "  %s -> %s  (%s)  %d msgs\n", er.e.Src, er.e.Dst, er.e.Channel, er.dMsgs)
			}
		}
	}

	if len(cur.Enclaves) > 0 {
		fmt.Fprintf(w, "\nenclaves\n")
		prevCrossings := make(map[string]uint64, len(prev.Enclaves))
		for _, e := range prev.Enclaves {
			prevCrossings[e.Name] = e.Crossings
		}
		for _, e := range cur.Enclaves {
			fmt.Fprintf(w, "  %-12s crossings +%d\n", e.Name, sub(e.Crossings, prevCrossings[e.Name]))
		}
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtNs(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
