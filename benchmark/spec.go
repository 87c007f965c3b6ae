package main

// The benchmark's contract in one place: workload names, metric names,
// units, directions and bounds. BENCHMARK.json at the repo root repeats
// it for the driver; TestSpecMatchesBenchmarkJSON keeps the two equal.

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse; per-layer metrics have
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics of a run with telemetry, trace and profile
// off, under the same names on every workload. fail_ratio is not in the
// list because the driver's metrics may never read 0: it travels as the
// result's failed/attempted pair and any failure fails the run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of the traced run. Timed probes come first
// in every layer, then the counters read around the traced window.
var perLayer = []metricDef{
	{Name: "mem.mbox_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "mem.mbox_batch_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "mem.pool_getput_ns", Unit: "ns", Better: "lower"},

	{Name: "ecrypto.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "ecrypto.open_ns", Unit: "ns", Better: "lower"},
	{Name: "ecrypto.det_seal_ns", Unit: "ns", Better: "lower"},

	{Name: "sgx.crossing_ns", Unit: "ns", Better: "lower"},
	{Name: "sgx.ecall_ns", Unit: "ns", Better: "lower"},
	{Name: "sgx.rand_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "sgx.crossings_per_op", Unit: "1", Better: "lower"},
	{Name: "sgx.copied_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sgx.rand_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sgx.evicted_pages", Unit: "count", Better: "lower"},
	{Name: "sgx.crossings_avoided_per_op", Unit: "1", Better: "higher"},

	{Name: "core.hop_plain_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hop_enc_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hop_enc_batch_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.wake_us", Unit: "us", Better: "lower"},
	{Name: "core.msgs_per_op", Unit: "1", Better: "lower"},
	{Name: "core.send_failures_per_op", Unit: "1", Better: "lower"},
	{Name: "core.pool_free_min", Unit: "count", Better: "higher"},
	{Name: "core.actor_cpu_us_per_op.frontend", Unit: "us", Better: "lower"},
	{Name: "core.actor_cpu_us_per_op.kvstore", Unit: "us", Better: "lower"},
	{Name: "core.actor_cpu_us_per_op.reader", Unit: "us", Better: "lower"},
	{Name: "core.actor_cpu_us_per_op.writer", Unit: "us", Better: "lower"},
	{Name: "core.actor_cpu_us_per_op.xmpp-shard", Unit: "us", Better: "lower"},

	{Name: "pos.get_ns", Unit: "ns", Better: "lower"},
	{Name: "pos.set_ns", Unit: "ns", Better: "lower"},
	{Name: "pos.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "pos.clean_ms", Unit: "ms", Better: "lower"},
	{Name: "pos.cache_hit_ratio", Unit: "1", Better: "higher"},
	{Name: "pos.flushes", Unit: "count", Better: "lower"},
	{Name: "pos.flushed_ops_per_set", Unit: "1", Better: "lower"},
	{Name: "pos.cleaned", Unit: "count", Better: "lower"},
	{Name: "pos.free_regions_min", Unit: "count", Better: "higher"},

	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "transport.resent_per_op", Unit: "1", Better: "lower"},
	{Name: "transport.max_inflight_bytes", Unit: "B", Better: "lower"},

	{Name: "netloop.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "netloop.retries", Unit: "count", Better: "lower"},
	{Name: "netloop.sheds", Unit: "count", Better: "lower"},

	{Name: "netactors.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netactors.echo_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "kv.codec_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "kv.svc_over_echo_us", Unit: "us", Better: "lower"},
	{Name: "kv.replayed_per_op", Unit: "1", Better: "lower"},

	{Name: "xmpp.stanza_scan_ns", Unit: "ns", Better: "lower"},
	{Name: "xmpp.online_get_ns", Unit: "ns", Better: "lower"},
	{Name: "xmpp.routed_per_op", Unit: "1", Better: "lower"},

	{Name: "smc.sdk_round_us", Unit: "us", Better: "lower"},

	{Name: "trace.net-read_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.dwell_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.seal_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.crossing_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.invoke_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.pos-get_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.pos-set_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.pos-sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.net-write_p50_us", Unit: "us", Better: "lower"},

	{Name: "traced.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "traced.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "1", Better: "higher"},
	{Name: "budget.explained_us", Unit: "us", Better: "higher"},
	{Name: "budget.unaccounted_us", Unit: "us", Better: "lower"},
}

// env is what a workload start gets from the command line.
type env struct {
	seed    int64
	scratch string // the only directory a run writes to
	traced  bool   // arm Options.Trace/Profile/Telemetry
}

// shape is the message shape a workload's probes use: the payload size
// its messages carry and how many travel together.
type shape struct {
	size  int
	batch int
	disk  bool // the store is file-backed
}

// budgetModel is the interaction stated before measuring: what one
// operation of the workload blocks on, in units the probes measure.
// budget.explained_us is this model priced with the probe results;
// budget.unaccounted_us is what is left of the traced lat_p50_us.
type budgetModel struct {
	rtts       float64 // loopback socket round trips (× transport.rtt_us)
	wakes      float64 // sequential wakes of a parked worker (× core.wake_us)
	plainHops  float64 // plaintext channel hops (× core.hop_plain_ns)
	encHops    float64 // encrypted channel hops (× core.hop_enc_ns)
	posGets    float64 // store reads (× pos.get_ns)
	posSets    float64 // store writes (× pos.set_ns)
	codecs     float64 // KV request/response codec pairs (× kv.codec_ns_per_req)
	scans      float64 // XMPP stanza scans (× xmpp.stanza_scan_ns)
	onlineGets float64 // directory lookups (× xmpp.online_get_ns)
	randKiB    float64 // trusted RNG output (× sgx.rand_ns_per_kb)
}

// workloadDef is one named workload.
type workloadDef struct {
	Name   string
	Why    string // one line, repeated in BENCHMARK.json
	shape  shape
	budget budgetModel
	start  func(env) (instance, error)
}

var (
	kvLockstep     = kvShape{shape{size: 128, batch: 1}, 90}
	kvPipelinedGet = kvShape{shape{size: 128, batch: kvMaxDepth}, 100}
	kvPipelinedSet = kvShape{shape{size: 1024, batch: kvMaxDepth, disk: true}, 0}
)

// A KV request blocks on one socket round trip and four wakes (pump →
// READER, READER → FRONTEND, FRONTEND → KVSTORE, KVSTORE → WRITER); the
// FRONTEND → KVSTORE hop is the encrypted one. An XMPP round trip is
// two server traversals of READER → shard → WRITER over plaintext
// networking channels. An SMC round is three encrypted hops, and each
// finds the next party's worker parked: a round takes some 80 µs and a
// worker parks after 32 idle polls.
var workloads = []*workloadDef{
	{
		Name:   "kv_lockstep",
		Why:    "one request in flight per connection: every hop wakes a parked worker, so core doorbells and netactors set the latency and crypto, pos and batching almost nothing",
		shape:  kvLockstep.shape,
		budget: budgetModel{rtts: 1, wakes: 4, plainHops: 2, encHops: 1, posGets: 0.9, posSets: 0.1, codecs: 1},
		start:  startKV(kvLockstep),
	},
	{
		Name:   "kv_pipelined_get",
		Why:    "32 GETs in flight per connection: queues stay full and wakes amortise, so framing, SendBatch, seal-per-batch and the pos read cache set throughput; guards against latency tricks that burn a core",
		shape:  kvPipelinedGet.shape,
		budget: budgetModel{rtts: 1, wakes: 4, plainHops: 2, encHops: 1, posGets: 1, codecs: 1},
		start:  startKV(kvPipelinedGet),
	},
	{
		Name:   "kv_pipelined_set",
		Why:    "32 SETs of 1 KiB in flight per connection into file-backed shards: pos write-back, at-rest sealing, flush and Sync, the cleaner and 8x larger frames; a GET-side gain that costs writes shows here",
		shape:  kvPipelinedSet.shape,
		budget: budgetModel{rtts: 1, wakes: 4, plainHops: 2, encHops: 1, posSets: 1, codecs: 1},
		start:  startKV(kvPipelinedSet),
	},
	{
		Name:   "xmpp_o2o",
		Why:    "the paper's headline service: one sender, one echoing receiver, 150 B bodies, two server traversals per request through stanza scan, online directory and routing; no pos, no framed transport",
		shape:  shape{size: 150, batch: 1},
		budget: budgetModel{rtts: 2, wakes: 6, plainHops: 4, scans: 2, onlineGets: 2},
		start:  startXMPP,
	},
	{
		Name:   "smc_ring",
		Why:    "secure sum on a 3-party ring, Dim 16: no sockets, only encrypted enclave-to-enclave channels, node pool, mbox, seal/open and worker scheduling; a network-layer change must not move it",
		shape:  shape{size: 64, batch: 1},
		budget: budgetModel{wakes: 3, encHops: 3, randKiB: 64.0 / 1024},
		start:  startSMC,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// rng is a splitmix64 generator: the workload seed drives key and peer
// choice in the benchmark only, never the program under test.
type rng struct{ s uint64 }

func newRNG(seed int64, stream int) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
