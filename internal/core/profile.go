package core

import (
	"time"

	"github.com/eactors/eactors-go/internal/profile"
)

// ProfileEnabled reports whether per-actor cost accounting is armed
// (Config.Profile).
func (rt *Runtime) ProfileEnabled() bool { return rt.prof != nil }

// CostProfile captures the deployment's cost model: it first folds any
// pending sampled trace spans (mailbox dwell) into the cost cells, then
// snapshots every actor, communication edge and enclave. The result is
// the versioned profile.Model that /debug/profile serves. Returns an
// empty model when Config.Profile is off.
//
// Safe from any goroutine: cells are atomics, span folding is
// idempotent (high-water deduplication), and the trace snapshot
// tolerates concurrent writers.
func (rt *Runtime) CostProfile() profile.Model {
	if rt.prof == nil {
		return profile.Model{V: profile.SnapshotVersion}
	}
	if rt.tr != nil {
		rt.prof.FoldSpans(rt.tr.Snapshot())
	}
	return rt.prof.Snapshot(time.Now().UnixNano())
}
