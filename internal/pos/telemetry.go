package pos

import (
	"time"

	"github.com/eactors/eactors-go/internal/telemetry"
)

// storeTelemetry bundles the instruments a Store reports through once
// AttachTelemetry has been called. The operation counters stay the
// store's own atomics (the registry reads them at scrape time); only the
// latency histograms are written on the operation paths, behind one
// atomic pointer load that is nil when telemetry is off.
type storeTelemetry struct {
	getNs  *telemetry.Histogram
	setNs  *telemetry.Histogram
	syncNs *telemetry.Histogram
}

// AttachTelemetry exposes the store's counters and occupancy through reg
// and begins observing get/set/sync latency. Call once, before the store
// is shared.
func (s *Store) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &storeTelemetry{
		getNs:  reg.Histogram("eactors_pos_get_ns", "POS Get latency", "ns"),
		setNs:  reg.Histogram("eactors_pos_set_ns", "POS Set latency", "ns"),
		syncNs: reg.Histogram("eactors_pos_sync_ns", "POS Sync latency", "ns"),
	}
	reg.CounterFunc("eactors_pos_sets", "POS Set operations", s.sets.Load)
	reg.CounterFunc("eactors_pos_gets", "POS Get operations", s.gets.Load)
	reg.CounterFunc("eactors_pos_cleaned", "regions reclaimed by the cleaner", s.cleaned.Load)
	reg.GaugeFunc("eactors_pos_free_regions", "regions Set can still take",
		func() uint64 { return uint64(s.FreeRegions()) })
	reg.GaugeFunc("eactors_pos_regions", "total regions in the store",
		func() uint64 { return uint64(s.regionCount) })
	s.tel.Store(t)
}

// AttachTelemetry exposes the sharded store's aggregate counters and
// write-back state through reg. The per-shard Stores are deliberately
// not attached individually (their metric names would collide); the
// aggregate Stats sweep covers them.
func (ss *ShardedStore) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("eactors_pos_cache_hits", "sharded POS write-back cache hits", ss.hits.Load)
	reg.CounterFunc("eactors_pos_cache_misses", "sharded POS write-back cache misses", ss.misses.Load)
	reg.CounterFunc("eactors_pos_flushes", "sharded POS shard write-backs", ss.flushes.Load)
	reg.CounterFunc("eactors_pos_flushed_ops", "dirty entries persisted by write-backs", ss.flushOps.Load)
	reg.CounterFunc("eactors_pos_sync_failures", "failed shard syncs (injected or organic)", ss.syncFails.Load)
	reg.GaugeFunc("eactors_pos_dirty_entries", "dirty write-back entries across shards",
		func() uint64 { return uint64(ss.Stats().Dirty) })
	reg.GaugeFunc("eactors_pos_shards", "POS shard count",
		func() uint64 { return uint64(len(ss.shards)) })
}

// opStart returns the timestamp to measure a store operation against, or
// the zero time when telemetry is off (ObserveSince ignores it).
func (s *Store) opStart() time.Time {
	if s.tel.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Store) observeGet(start time.Time) {
	if t := s.tel.Load(); t != nil {
		t.getNs.ObserveSince(start)
	}
}

func (s *Store) observeSet(start time.Time) {
	if t := s.tel.Load(); t != nil {
		t.setNs.ObserveSince(start)
	}
}

func (s *Store) observeSync(start time.Time) {
	if t := s.tel.Load(); t != nil {
		t.syncNs.ObserveSince(start)
	}
}
