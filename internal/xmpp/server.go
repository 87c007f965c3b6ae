package xmpp

import (
	"fmt"
	"hash/fnv"
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
)

// Options configures the EActors XMPP service deployment. As in the
// paper, the deployment (shard count, enclave layout, trust) is entirely
// separate from the service logic.
type Options struct {
	// ListenAddr is the TCP listen address (default "127.0.0.1:0").
	ListenAddr string
	// Shards is the number of XMPP eactors, each with its own READER and
	// WRITER (the paper's EA/3 is 1 shard, EA/6 is 2, EA/48 is 16).
	Shards int
	// Trusted places the CONNECTOR and XMPP eactors inside enclaves.
	Trusted bool
	// EnclaveCount is the number of enclaves the XMPP eactors are spread
	// over when Trusted (Figure 16); clamped to [1, Shards].
	EnclaveCount int
	// Platform supplies the SGX simulation; nil creates a default one.
	Platform *sgx.Platform
	// DedicatedRooms lists group chats confined to their own XMPP
	// eactor — and, when Trusted, their own enclave (Section 2.1: per-
	// group-chat enclaves limit what a compromised enclave exposes).
	// Messages for these rooms are forwarded from the regular shards
	// over encrypted channels; the group plaintext exists only inside
	// the room's enclave.
	DedicatedRooms []string
	// DirectoryStore, when non-nil, keeps the Online list in this
	// Persistent Object Store instead of in memory (Section 4.1: the POS
	// holds "configuration and application data" shared by all eactors).
	// Open the store in encrypted mode for confidentiality at rest; the
	// in-memory directory's sealing option is bypassed.
	DirectoryStore *pos.Store
	// Telemetry enables the runtime observability subsystem
	// (core.Config.Telemetry): worker/channel/SGX metrics, a stanza
	// routing latency histogram, the networking and service counters, and
	// per-worker flight recorders. Export via Server.Telemetry — e.g.
	// telemetry.Serve for the Prometheus/pprof endpoint.
	Telemetry bool
	// Trace enables sampled causal tracing (core.Config.Trace),
	// independent of Telemetry. Export via Server.Tracer — e.g.
	// telemetry.WithTraces for the /debug/traces endpoint.
	Trace bool
	// TraceSampleEvery roots one trace per this many inbound bursts
	// (trace.DefaultSampleEvery when zero).
	TraceSampleEvery int
	// Profile enables per-actor cost accounting (independent of
	// Telemetry and Trace); see Server.CostProfile.
	Profile bool
	// Faults arms the runtime's deterministic fault injector
	// (core.Config.Faults) for chaos testing; nil in production.
	Faults *faults.Injector
}

// Stats are the service counters.
type Stats struct {
	// Connections counts successful authentications.
	Connections uint64
	// Routed counts one-to-one messages delivered to a recipient socket.
	Routed uint64
	// GroupFanout counts per-member group-chat deliveries.
	GroupFanout uint64
	// AuthFailures counts rejected authentication attempts.
	AuthFailures uint64
}

// Server is a running EActors XMPP service.
type Server struct {
	rt     *core.Runtime
	sys    *netactors.System
	online Directory
	rooms  *RoomTable
	addr   string
	// roomIndex maps dedicated rooms to their room-shard index.
	roomIndex map[string]int

	conns    atomic.Uint64
	routed   atomic.Uint64
	fanout   atomic.Uint64
	authFail atomic.Uint64

	// routeNs is the stanza routing latency histogram; nil (a telemetry
	// no-op) unless Options.Telemetry was set.
	routeNs *telemetry.Histogram
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// Online returns the shared connection directory (tests and tooling).
func (s *Server) Online() Directory { return s.online }

// Runtime returns the underlying EActors runtime.
func (s *Server) Runtime() *core.Runtime { return s.rt }

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
// unmounted.
func (s *Server) ProfileSource() func() profile.Model {
	if !s.rt.ProfileEnabled() {
		return nil
	}
	return s.rt.CostProfile
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Connections:  s.conns.Load(),
		Routed:       s.routed.Load(),
		GroupFanout:  s.fanout.Load(),
		AuthFailures: s.authFail.Load(),
	}
}

// Stop shuts the service down.
func (s *Server) Stop() {
	s.rt.Stop()
	s.sys.Shutdown()
}

func shardOf(user string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(user))
	return int(h.Sum32() % uint32(shards))
}

// Start deploys and launches the service, blocking until the listener
// is bound.
func Start(opts Options) (*Server, error) {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	enclaveCount := 0
	if opts.Trusted {
		enclaveCount = opts.EnclaveCount
		if enclaveCount <= 0 {
			enclaveCount = 1
		}
		if enclaveCount > opts.Shards {
			enclaveCount = opts.Shards
		}
	}
	platform := opts.Platform
	if platform == nil {
		platform = sgx.NewPlatform()
	}

	// The shared directory is sealed at rest unless every trusted eactor
	// shares a single enclave (Figure 16's single-enclave advantage).
	var online Directory
	if opts.DirectoryStore != nil {
		online = NewPOSDirectory(opts.DirectoryStore)
	} else {
		sealedDirectory := opts.Trusted && enclaveCount > 1
		var dirKey [ecrypto.KeySize]byte
		if sealedDirectory {
			// Any enclave could derive this via attestation; the
			// simulation simply generates it platform-side.
			tmp, err := platform.CreateEnclave("xmpp-dirkey", 0)
			if err != nil {
				return nil, err
			}
			tmp.ReadRand(dirKey[:])
			platform.DestroyEnclave(tmp)
		}
		list, err := NewOnlineList(sealedDirectory, dirKey)
		if err != nil {
			return nil, err
		}
		online = list
	}

	srv := &Server{
		sys:       netactors.NewSystem(),
		online:    online,
		rooms:     NewRoomTable(),
		roomIndex: make(map[string]int, len(opts.DedicatedRooms)),
	}
	for j, room := range opts.DedicatedRooms {
		srv.roomIndex[room] = j
	}

	cfg, addrCh, err := srv.buildConfig(opts, enclaveCount)
	if err != nil {
		return nil, err
	}
	rt, err := core.NewRuntime(platform, cfg)
	if err != nil {
		return nil, err
	}
	srv.rt = rt
	if reg := rt.Telemetry(); reg != nil {
		srv.sys.AttachTelemetry(reg)
		if opts.DirectoryStore != nil {
			opts.DirectoryStore.AttachTelemetry(reg)
		}
		srv.routeNs = reg.Histogram("eactors_xmpp_route_ns", "stanza routing latency", "ns")
		reg.CounterFunc("eactors_xmpp_connections", "successful authentications", srv.conns.Load)
		reg.CounterFunc("eactors_xmpp_routed", "one-to-one messages delivered", srv.routed.Load)
		reg.CounterFunc("eactors_xmpp_group_fanout", "per-member group-chat deliveries", srv.fanout.Load)
		reg.CounterFunc("eactors_xmpp_auth_failures", "rejected authentication attempts", srv.authFail.Load)
	}
	if err := rt.Start(); err != nil {
		rt.Stop()
		return nil, err
	}
	select {
	case addr := <-addrCh:
		srv.addr = addr
	case <-time.After(10 * time.Second):
		srv.Stop()
		return nil, fmt.Errorf("xmpp: listener did not come up on %s", opts.ListenAddr)
	}
	return srv, nil
}

// buildConfig assembles the deployment: workers, enclaves, channels and
// eactors for the CONNECTOR side and every shard.
func (srv *Server) buildConfig(opts Options, enclaveCount int) (core.Config, chan string, error) {
	shards := opts.Shards
	addrCh := make(chan string, 1)

	cfg := core.Config{
		Telemetry:        opts.Telemetry,
		Trace:            opts.Trace,
		TraceSampleEvery: opts.TraceSampleEvery,
		Profile:          opts.Profile,
		Faults:           opts.Faults,
	}

	// Workers: 0 = connector, 1 = connector networking, then per shard a
	// trusted worker and a networking worker (the paper's deployment,
	// Section 5.1.3).
	cfg.Workers = make([]core.WorkerSpec, 2+2*shards)
	connectorWorker := 0
	connectorNetWorker := 1
	shardWorker := func(i int) int { return 2 + 2*i }
	shardNetWorker := func(i int) int { return 2 + 2*i + 1 }

	// Enclaves.
	connectorEnclave := ""
	shardEnclave := make([]string, shards)
	if opts.Trusted {
		connectorEnclave = "xmpp-connector"
		cfg.Enclaves = append(cfg.Enclaves, core.EnclaveSpec{Name: connectorEnclave})
		for e := 0; e < enclaveCount; e++ {
			cfg.Enclaves = append(cfg.Enclaves, core.EnclaveSpec{Name: fmt.Sprintf("xmpp-%d", e)})
		}
		for i := 0; i < shards; i++ {
			shardEnclave[i] = fmt.Sprintf("xmpp-%d", i%enclaveCount)
		}
	}

	// Connector-side channels. Networking channels are plaintext by
	// design (Section 5.1.2): the payloads they carry are already
	// protected at the service level, and their untrusted endpoint could
	// read them anyway.
	cfg.Channels = append(cfg.Channels,
		core.ChannelSpec{Name: "open", A: "connector", B: "opener", Plaintext: true},
		core.ChannelSpec{Name: "c-accept", A: "connector", B: "accepter", Plaintext: true},
		core.ChannelSpec{Name: "c-read", A: "connector", B: "c-reader", Plaintext: true, Capacity: 4096},
		core.ChannelSpec{Name: "c-write", A: "connector", B: "c-writer", Plaintext: true, Capacity: 4096},
		core.ChannelSpec{Name: "c-close", A: "connector", B: "closer", Plaintext: true},
	)
	for i := 0; i < shards; i++ {
		cfg.Channels = append(cfg.Channels,
			// Handoffs cross enclave boundaries: encrypted when trusted.
			core.ChannelSpec{Name: fmt.Sprintf("handoff-%d", i), A: "connector", B: shardName(i)},
			core.ChannelSpec{Name: fmt.Sprintf("read-%d", i), A: shardName(i), B: readerName(i), Plaintext: true, Capacity: 4096},
			core.ChannelSpec{Name: fmt.Sprintf("write-%d", i), A: shardName(i), B: writerName(i), Plaintext: true, Capacity: 4096},
			core.ChannelSpec{Name: fmt.Sprintf("close-%d", i), A: shardName(i), B: "closer", Plaintext: true},
		)
	}

	// Networking eactors (always untrusted).
	closerChannels := []string{"c-close"}
	for i := 0; i < shards; i++ {
		closerChannels = append(closerChannels, fmt.Sprintf("close-%d", i))
	}
	cfg.Actors = append(cfg.Actors,
		srv.sys.OpenerSpec("opener", connectorNetWorker, "open"),
		srv.sys.AccepterSpec("accepter", connectorNetWorker, "c-accept"),
		srv.sys.ReaderSpec("c-reader", connectorNetWorker, "c-read"),
		srv.sys.WriterSpec("c-writer", connectorNetWorker, "c-write"),
		srv.sys.CloserSpec("closer", connectorNetWorker, closerChannels...),
	)
	for i := 0; i < shards; i++ {
		cfg.Actors = append(cfg.Actors,
			srv.sys.ReaderSpec(readerName(i), shardNetWorker(i), fmt.Sprintf("read-%d", i)),
			srv.sys.WriterSpec(writerName(i), shardNetWorker(i), fmt.Sprintf("write-%d", i)),
		)
	}

	// The CONNECTOR eactor.
	cfg.Actors = append(cfg.Actors, srv.connectorSpec(opts, connectorWorker, connectorEnclave, shards, addrCh))

	// The XMPP shard eactors.
	for i := 0; i < shards; i++ {
		cfg.Actors = append(cfg.Actors, srv.shardSpec(opts, i, shardWorker(i), shardEnclave[i]))
	}

	// Dedicated room shards (Section 2.1's per-group-chat enclaves):
	// each gets its own worker, its own enclave when trusted, a WRITER
	// on the connector's networking worker, and a forward channel from
	// every regular shard.
	for j, room := range opts.DedicatedRooms {
		roomWorker := len(cfg.Workers)
		cfg.Workers = append(cfg.Workers, core.WorkerSpec{})
		roomEnclave := ""
		if opts.Trusted {
			roomEnclave = roomEnclaveName(j)
			cfg.Enclaves = append(cfg.Enclaves, core.EnclaveSpec{Name: roomEnclave})
		}
		cfg.Channels = append(cfg.Channels, core.ChannelSpec{
			Name: fmt.Sprintf("room-write-%d", j),
			A:    roomShardName(j), B: roomWriterName(j),
			Plaintext: true, Capacity: 4096,
		})
		for i := 0; i < shards; i++ {
			cfg.Channels = append(cfg.Channels, core.ChannelSpec{
				Name: roomFwdChannel(i, j),
				A:    shardName(i), B: roomShardName(j),
				Capacity: 1024,
			})
		}
		cfg.Actors = append(cfg.Actors,
			srv.sys.WriterSpec(roomWriterName(j), connectorNetWorker, fmt.Sprintf("room-write-%d", j)),
			srv.roomShardSpec(opts, j, roomWorker, roomEnclave, room, shards),
		)
	}
	return cfg, addrCh, nil
}

func shardName(i int) string  { return fmt.Sprintf("xmpp-shard-%d", i) }
func readerName(i int) string { return fmt.Sprintf("reader-%d", i) }
func writerName(i int) string { return fmt.Sprintf("writer-%d", i) }
