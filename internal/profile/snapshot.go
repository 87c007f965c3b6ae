package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// SnapshotVersion is the current cost-model schema version. The
// compatibility promise (DESIGN §15): consumers reject versions they do
// not know (Decode returns ErrUnknownVersion), producers only add
// fields within a version — any removal or semantic change bumps it.
// Version 2 dropped the enclaves' pages_resident and evicted_pages.
const SnapshotVersion = 2

// ErrUnknownVersion reports a snapshot whose schema version this
// decoder does not understand.
var ErrUnknownVersion = errors.New("profile: unknown snapshot version")

// Model is one cost-model snapshot: the per-actor cost profiles, the
// actor→actor communication matrix (as a sparse edge list), and the
// per-enclave crossings at one capture instant. It is the stable
// input contract for the placement advisor (ROADMAP item 5) and the
// wire format of /debug/profile and of the JSONL history eactors top -o
// keeps.
type Model struct {
	V            int           `json:"v"`
	CapturedAtNs int64         `json:"captured_at_ns"`
	SampleEvery  int           `json:"sample_every,omitempty"`
	Actors       []ActorCost   `json:"actors,omitempty"`
	Edges        []EdgeCost    `json:"edges,omitempty"`
	Enclaves     []EnclaveCost `json:"enclaves,omitempty"`
}

// ActorCost is one actor's accumulated cost profile. All ns fields are
// already extrapolated to estimated totals; dwell is the exception —
// it is a (sum, samples) pair over sampled traces and only the mean is
// meaningful.
type ActorCost struct {
	Name         string `json:"name"`
	Enclave      string `json:"enclave,omitempty"`
	Worker       int    `json:"worker"`
	Invocations  uint64 `json:"invocations"`
	InvokeNs     uint64 `json:"invoke_ns"`
	MsgsSent     uint64 `json:"msgs_sent"`
	BytesSent    uint64 `json:"bytes_sent"`
	MsgsRecv     uint64 `json:"msgs_recv"`
	BytesRecv    uint64 `json:"bytes_recv"`
	Crossings    uint64 `json:"crossings"`
	SealOps      uint64 `json:"seal_ops"`
	SealNs       uint64 `json:"seal_ns"`
	SealBytes    uint64 `json:"seal_bytes"`
	OpenOps      uint64 `json:"open_ops"`
	OpenNs       uint64 `json:"open_ns"`
	OpenBytes    uint64 `json:"open_bytes"`
	DwellNs      uint64 `json:"dwell_ns"`
	DwellSamples uint64 `json:"dwell_samples"`
}

// EdgeCost is one directed edge of the communication matrix, resolved
// to actor names. Only edges that carried traffic are emitted.
type EdgeCost struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Channel string `json:"channel"`
	Msgs    uint64 `json:"msgs"`
	Bytes   uint64 `json:"bytes"`
}

// EnclaveCost is one enclave's crossings, summed over its member actors.
type EnclaveCost struct {
	Name      string `json:"name"`
	Crossings uint64 `json:"crossings"`
}

// Snapshot captures the collector state into a Model stamped with
// nowNs. Safe concurrently with hot-path writers (each field is an
// independent atomic load, so a snapshot is per-field — not cross-field
// — consistent, which is fine for rate and ratio consumers). Nil-safe:
// a nil collector yields an empty model.
func (c *Collector) Snapshot(nowNs int64) Model {
	m := Model{V: SnapshotVersion, CapturedAtNs: nowNs}
	if c == nil {
		return m
	}
	m.SampleEvery = SampleEvery
	c.mu.Lock()
	defer c.mu.Unlock()

	// Each edge is read once, so an actor's sent traffic is exactly the
	// sum of the outgoing edges this snapshot reports.
	type traffic struct{ msgs, bytes uint64 }
	edges := make([]traffic, len(c.edges))
	sent := make([]traffic, len(c.actors))
	for i, e := range c.edges {
		edges[i] = traffic{e.msgs(), e.cell.Bytes.Load()}
		if int(e.meta.Src) < len(sent) {
			sent[e.meta.Src].msgs += edges[i].msgs
			sent[e.meta.Src].bytes += edges[i].bytes
		}
	}

	names := make(map[uint32]string, len(c.actors))
	byEnclave := make(map[string]uint64)
	for tag, e := range c.actors {
		if e.cell == nil {
			continue
		}
		names[uint32(tag)] = e.meta.Name
		crossings := e.cell.Crossings.Load()
		if e.meta.Enclave != "" {
			byEnclave[e.meta.Enclave] += crossings
		}
		m.Actors = append(m.Actors, ActorCost{
			Name:         e.meta.Name,
			Enclave:      e.meta.Enclave,
			Worker:       e.meta.Worker,
			Invocations:  e.cell.Invocations.Load(),
			InvokeNs:     e.cell.InvokeNs.Load(),
			MsgsSent:     sent[tag].msgs,
			BytesSent:    sent[tag].bytes,
			MsgsRecv:     e.cell.MsgsRecv.Load(),
			BytesRecv:    e.cell.BytesRecv.Load(),
			Crossings:    crossings,
			SealOps:      e.cell.SealOps.Load(),
			SealNs:       e.cell.SealNs.Load(),
			SealBytes:    e.cell.SealBytes.Load(),
			OpenOps:      e.cell.OpenOps.Load(),
			OpenNs:       e.cell.OpenNs.Load(),
			OpenBytes:    e.cell.OpenBytes.Load(),
			DwellNs:      e.cell.DwellNs.Load(),
			DwellSamples: e.cell.DwellSamples.Load(),
		})
	}
	for i, e := range c.edges {
		if edges[i].msgs == 0 {
			continue
		}
		m.Edges = append(m.Edges, EdgeCost{
			Src:     names[e.meta.Src],
			Dst:     names[e.meta.Dst],
			Channel: e.meta.Channel,
			Msgs:    edges[i].msgs,
			Bytes:   edges[i].bytes,
		})
	}
	for _, name := range c.encl {
		m.Enclaves = append(m.Enclaves, EnclaveCost{Name: name, Crossings: byEnclave[name]})
	}
	sort.Slice(m.Edges, func(i, j int) bool { return m.Edges[i].Msgs > m.Edges[j].Msgs })
	return m
}

// Encode writes the model as one JSON line (one JSONL record).
func (m Model) Encode(w io.Writer) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode parses one snapshot record, enforcing the version contract:
// data carrying a version this package does not know fails with
// ErrUnknownVersion rather than being half-understood.
func Decode(data []byte) (Model, error) {
	var probe struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Model{}, fmt.Errorf("profile: malformed snapshot: %w", err)
	}
	if probe.V != SnapshotVersion {
		return Model{}, fmt.Errorf("%w: %d (want %d)", ErrUnknownVersion, probe.V, SnapshotVersion)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return Model{}, fmt.Errorf("profile: malformed snapshot: %w", err)
	}
	return m, nil
}
