package kv

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/profile"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/telemetry"
	"github.com/eactors/eactors-go/internal/trace"
	"github.com/eactors/eactors-go/internal/transport"
)

// Options configures the KV service deployment. Like the XMPP server,
// the deployment (shard count, trust, enclave layout) is entirely
// separate from the service logic.
type Options struct {
	// ListenAddr is the TCP listen address (default "127.0.0.1:0").
	ListenAddr string
	// Shards is the number of KVSTORE eactors and POS shards (each
	// KVSTORE has key affinity with exactly one POS shard).
	Shards int
	// Trusted places each KVSTORE eactor inside its own enclave; the
	// FRONTEND-to-KVSTORE channels then encrypt automatically.
	Trusted bool
	// Platform supplies the SGX simulation; nil creates a default one.
	Platform *sgx.Platform

	// SessionWindow is the per-session receive-buffer advertisement: how
	// many request bytes one session may keep in flight before the
	// transport window throttles it (transport.DefaultWindow when zero).
	SessionWindow int
	// ReplayWindow is the per-session response-cache depth the KVSTOREs
	// keep for resend dedup — it must exceed the deepest client pipeline
	// (transport.DefaultReplayWindow when zero).
	ReplayWindow int

	// Store, when non-nil, is used instead of opening one (the server
	// then does not close it). Its shard count must equal Shards.
	Store *pos.ShardedStore
	// Dir is the sharded store's directory ("" = volatile).
	Dir string
	// StoreSize is the per-shard store size (1 MiB when zero).
	StoreSize int
	// EncryptionKey, when non-nil, opens the store in encrypted mode:
	// every record sealed at rest, key lookups by deterministic
	// ciphertext (Section 4.1).
	EncryptionKey *[ecrypto.KeySize]byte
	// FlushInterval is the write-back flush period (100ms when zero;
	// negative leaves flushing to the per-burst Sync in the KVSTORE).
	FlushInterval time.Duration

	// Telemetry enables the runtime observability subsystem.
	Telemetry bool
	// Trace enables sampled causal tracing (independent of Telemetry).
	Trace bool
	// TraceSampleEvery roots one trace per this many inbound bursts
	// (trace.DefaultSampleEvery when zero).
	TraceSampleEvery int
	// Profile enables per-actor cost accounting (independent of
	// Telemetry and Trace); see Server.CostProfile.
	Profile bool
	// Faults arms the runtime's deterministic fault injector; nil in
	// production.
	Faults *faults.Injector
}

// Stats are the service counters.
type Stats struct {
	// Gets/Sets/Dels count executed operations by type.
	Gets, Sets, Dels uint64
	// NotFound counts GET/DEL misses.
	NotFound uint64
	// Errors counts StatusErr responses.
	Errors uint64
	// Sessions counts session handshakes accepted.
	Sessions uint64
	// Replayed counts resends answered from the replay cache without
	// re-executing (the exactly-once dedup hits).
	Replayed uint64
}

// Server is a running KV service.
type Server struct {
	rt        *core.Runtime
	sys       *netactors.System
	store     *pos.ShardedStore
	ownsStore bool
	addr      string

	gets, sets, dels, notFound, errs atomic.Uint64
	sessions, replayed               atomic.Uint64
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// Runtime returns the underlying EActors runtime.
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Store returns the sharded POS backing the service.
func (s *Server) Store() *pos.ShardedStore { return s.store }

// Telemetry returns the runtime's telemetry registry, or nil when
// Options.Telemetry was not set.
func (s *Server) Telemetry() *telemetry.Registry { return s.rt.Telemetry() }

// Tracer returns the runtime's causal tracer, or nil when Options.Trace
// was not set.
func (s *Server) Tracer() *trace.Tracer { return s.rt.Tracer() }

// CostProfile captures the runtime's per-actor cost-model snapshot
// (empty when Options.Profile was not set).
func (s *Server) CostProfile() profile.Model { return s.rt.CostProfile() }

// ProfileSource returns the snapshot source for telemetry.WithProfile,
// or nil when Options.Profile was not set — nil keeps /debug/profile
// unmounted, so callers can pass it unconditionally.
func (s *Server) ProfileSource() func() profile.Model {
	if !s.rt.ProfileEnabled() {
		return nil
	}
	return s.rt.CostProfile
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Gets: s.gets.Load(), Sets: s.sets.Load(), Dels: s.dels.Load(),
		NotFound: s.notFound.Load(), Errors: s.errs.Load(),
		Sessions: s.sessions.Load(), Replayed: s.replayed.Load(),
	}
}

// Stop shuts the service down: runtime first (no more requests), then
// sockets, then the store (final write-back flush).
func (s *Server) Stop() {
	s.rt.Stop()
	s.sys.Shutdown()
	if s.ownsStore {
		_ = s.store.Close()
	}
}

// Start deploys and launches the service, blocking until the listener
// is bound.
func Start(opts Options) (*Server, error) {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.Shards <= 0 {
		opts.Shards = pos.DefaultShards
	}
	if opts.StoreSize <= 0 {
		opts.StoreSize = 1 << 20
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = 100 * time.Millisecond
	}
	if opts.SessionWindow <= 0 {
		opts.SessionWindow = transport.DefaultWindow
	}
	if opts.ReplayWindow <= 0 {
		opts.ReplayWindow = transport.DefaultReplayWindow
	}
	platform := opts.Platform
	if platform == nil {
		platform = sgx.NewPlatform()
	}

	srv := &Server{sys: netactors.NewSystem()}
	if opts.Store != nil {
		if opts.Store.Shards() != opts.Shards {
			return nil, fmt.Errorf("kv: store has %d shards, deployment wants %d", opts.Store.Shards(), opts.Shards)
		}
		srv.store = opts.Store
	} else {
		flush := opts.FlushInterval
		if flush < 0 {
			flush = 0
		}
		store, err := pos.OpenSharded(pos.ShardedOptions{
			Shards:        opts.Shards,
			Dir:           opts.Dir,
			SizeBytes:     opts.StoreSize,
			EncryptionKey: opts.EncryptionKey,
			FlushInterval: flush,
		})
		if err != nil {
			return nil, err
		}
		srv.store = store
		srv.ownsStore = true
	}
	if opts.Faults != nil {
		srv.store.AttachFaults(opts.Faults)
	}

	cfg, addrCh := srv.buildConfig(opts)
	rt, err := core.NewRuntime(platform, cfg)
	if err != nil {
		if srv.ownsStore {
			_ = srv.store.Close()
		}
		return nil, err
	}
	srv.rt = rt
	if reg := rt.Telemetry(); reg != nil {
		srv.sys.AttachTelemetry(reg)
		srv.store.AttachTelemetry(reg)
		reg.CounterFunc("eactors_kv_gets", "KV GET operations served", srv.gets.Load)
		reg.CounterFunc("eactors_kv_sets", "KV SET operations served", srv.sets.Load)
		reg.CounterFunc("eactors_kv_dels", "KV DEL operations served", srv.dels.Load)
		reg.CounterFunc("eactors_kv_not_found", "KV GET/DEL misses", srv.notFound.Load)
		reg.CounterFunc("eactors_kv_errors", "KV error responses", srv.errs.Load)
		reg.CounterFunc("eactors_kv_sessions", "KV session handshakes", srv.sessions.Load)
		reg.CounterFunc("eactors_kv_replayed", "KV resends answered from the replay cache", srv.replayed.Load)
	}
	if err := rt.Start(); err != nil {
		srv.Stop()
		return nil, err
	}
	select {
	case addr := <-addrCh:
		srv.addr = addr
	case <-time.After(10 * time.Second):
		srv.Stop()
		return nil, fmt.Errorf("kv: listener did not come up on %s", opts.ListenAddr)
	}
	return srv, nil
}

// buildConfig assembles the deployment: worker 0 runs the FRONTEND,
// worker 1 the networking eactors, then one worker per KVSTORE.
func (srv *Server) buildConfig(opts Options) (core.Config, chan string) {
	shards := opts.Shards
	addrCh := make(chan string, 1)

	cfg := core.Config{
		Telemetry:        opts.Telemetry,
		Trace:            opts.Trace,
		TraceSampleEvery: opts.TraceSampleEvery,
		Profile:          opts.Profile,
		Faults:           opts.Faults,
	}
	cfg.Workers = make([]core.WorkerSpec, 2+shards)
	frontWorker, netWorker := 0, 1
	storeWorker := func(i int) int { return 2 + i }

	// Enclave layout: one enclave per KVSTORE when trusted (a
	// compromised shard exposes only its slice of the key space — the
	// deployment flexibility argument of Section 2.1).
	storeEnclave := make([]string, shards)
	if opts.Trusted {
		for i := 0; i < shards; i++ {
			storeEnclave[i] = fmt.Sprintf("kv-%d", i)
			cfg.Enclaves = append(cfg.Enclaves, core.EnclaveSpec{Name: storeEnclave[i]})
		}
	}

	// Networking channels are plaintext by design (Section 5.1.2): their
	// untrusted endpoint could read them anyway. The req-i channels are
	// the trust boundary — they encrypt automatically when the KVSTORE
	// is enclaved.
	// fwrite is the FRONTEND's direct line to the WRITER for session
	// control frames (HELLO-ACK, GOAWAY) that no KVSTORE ever sees.
	cfg.Channels = append(cfg.Channels,
		core.ChannelSpec{Name: "open", A: "frontend", B: "opener", Plaintext: true},
		core.ChannelSpec{Name: "accept", A: "frontend", B: "accepter", Plaintext: true},
		core.ChannelSpec{Name: "read", A: "frontend", B: "reader", Plaintext: true, Capacity: 4096},
		core.ChannelSpec{Name: "close", A: "frontend", B: "closer", Plaintext: true},
		core.ChannelSpec{Name: "fwrite", A: "frontend", B: "writer", Plaintext: true, Capacity: 512},
	)
	writeChans := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		req := reqChannel(i)
		wr := writeChannel(i)
		cfg.Channels = append(cfg.Channels,
			core.ChannelSpec{Name: req, A: "frontend", B: storeName(i), Capacity: 1024},
			core.ChannelSpec{Name: wr, A: storeName(i), B: "writer", Plaintext: true, Capacity: 4096},
		)
		writeChans = append(writeChans, wr)
	}

	cfg.Actors = append(cfg.Actors,
		srv.sys.OpenerSpec("opener", netWorker, "open"),
		srv.sys.AccepterSpec("accepter", netWorker, "accept"),
		srv.sys.ReaderSpec("reader", netWorker, "read"),
		srv.sys.WriterSpec("writer", netWorker, append(writeChans, "fwrite")...),
		srv.sys.CloserSpec("closer", netWorker, "close"),
		srv.frontendSpec(opts, frontWorker, shards, addrCh),
	)
	for i := 0; i < shards; i++ {
		cfg.Actors = append(cfg.Actors, srv.storeSpec(opts, i, storeWorker(i), storeEnclave[i]))
	}
	return cfg, addrCh
}

func storeName(i int) string { return fmt.Sprintf("kvstore-%d", i) }
