package netactors

import (
	"github.com/eactors/eactors-go/internal/telemetry"
)

// AttachTelemetry exposes the socket table's traffic counters through
// reg. The table atomics remain the single source of truth — the
// registry reads them at scrape time, so the networking pumps carry no
// extra instrumentation branches.
func (s *System) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := s.table
	reg.CounterFunc("eactors_net_bytes_in", "bytes read from connections", t.stats.bytesIn.Load)
	reg.CounterFunc("eactors_net_bytes_out", "bytes written to connections", t.stats.bytesOut.Load)
	reg.CounterFunc("eactors_net_dials", "outbound connections established", t.stats.dials.Load)
	reg.CounterFunc("eactors_net_accepts", "inbound connections accepted", t.stats.accepts.Load)
	reg.CounterFunc("eactors_net_dropped_frames", "outbound frames dropped on slow consumers", t.stats.dropped.Load)
	reg.CounterFunc("eactors_net_write_backlog_frames", "outbound frames or remainders the kernel refused, handed to a write pump", t.stats.queued.Load)
	reg.GaugeFunc("eactors_net_sockets", "sockets registered in the table",
		func() uint64 { return uint64(t.Len()) })
	reg.GaugeFunc("eactors_net_queue_depth", "queued frames across all per-connection inboxes and outboxes",
		t.queueDepth)
	reg.CounterFunc("eactors_net_reader_drains", "READER socket drains (one per ready socket, never per idle watch)", t.stats.drains.Load)
}
