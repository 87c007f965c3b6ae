package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/mem"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/netloop"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/smc"
	"github.com/eactors/eactors-go/internal/transport"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// The per-layer probes: each times calls into one layer's public
// functions with the workload's message shape, from the benchmark's own
// files, so no span or counter has to be added to the program. A probe
// gets a time budget, splits it into probeRepeats repeats and reports
// the median repeat.
const probeRepeats = 5

// probeCtx is what a probe gets: its time budget, the workload's
// message shape, the run's scratch directory, and a place for counters
// it reads on the side.
type probeCtx struct {
	budget  time.Duration
	sh      shape
	scratch string
	extra   map[string]float64
}

// probe is one timed per-layer measurement; it returns the value in its
// metric's unit.
type probe struct {
	metric string
	run    func(pc *probeCtx) (float64, error)
}

var probes = []probe{
	{"mem.mbox_ns_per_msg", probeMbox},
	{"mem.mbox_batch_ns_per_msg", probeMboxBatch},
	{"mem.pool_getput_ns", probePool},
	{"ecrypto.seal_ns", probeSeal},
	{"ecrypto.open_ns", probeOpen},
	{"ecrypto.det_seal_ns", probeDetSeal},
	{"sgx.crossing_ns", probeCrossing},
	{"sgx.ecall_ns", probeECall},
	{"sgx.rand_ns_per_kb", probeRand},
	{"core.hop_plain_ns", func(pc *probeCtx) (float64, error) { return probeHop(pc.budget, pc.sh.size, 1, false) }},
	{"core.hop_enc_ns", func(pc *probeCtx) (float64, error) { return probeHop(pc.budget, pc.sh.size, 1, true) }},
	{"core.hop_enc_batch_ns_per_msg", func(pc *probeCtx) (float64, error) {
		return probeHop(pc.budget, pc.sh.size, pc.sh.batch, true)
	}},
	{"core.wake_us", probeWake},
	{"pos.get_ns", func(pc *probeCtx) (float64, error) { return probePOS(pc, "get") }},
	{"pos.set_ns", func(pc *probeCtx) (float64, error) { return probePOS(pc, "set") }},
	{"pos.flush_ms", func(pc *probeCtx) (float64, error) { return probePOS(pc, "flush") }},
	{"pos.clean_ms", func(pc *probeCtx) (float64, error) { return probePOS(pc, "clean") }},
	{"transport.rtt_us", func(pc *probeCtx) (float64, error) { return probeTransport(pc.budget, pc.sh.size, 1) }},
	{"transport.ns_per_call", func(pc *probeCtx) (float64, error) { return probeTransport(pc.budget, pc.sh.size, kvMaxDepth) }},
	{"netloop.dispatch_us", probeNetloop},
	{"netactors.echo_rtt_us", func(pc *probeCtx) (float64, error) { return probeEcho(pc.budget, 1) }},
	{"netactors.echo_ns_per_msg", func(pc *probeCtx) (float64, error) { return probeEcho(pc.budget, 32) }},
	{"kv.codec_ns_per_req", probeCodec},
	{"xmpp.stanza_scan_ns", probeStanzaScan},
	{"xmpp.online_get_ns", probeOnlineGet},
	{"smc.sdk_round_us", probeSDKRound},
}

// timeLoop calls fn in chunks of chunk calls (so the clock is read once
// per chunk, not per call) until a repeat's share of the budget is
// spent, and returns the median ns per call over the repeats.
func timeLoop(budget time.Duration, chunk int, fn func()) float64 {
	per := budget / probeRepeats
	reps := make([]float64, 0, probeRepeats)
	for r := 0; r < probeRepeats; r++ {
		start := time.Now()
		for calls := chunk; ; calls += chunk {
			for i := 0; i < chunk; i++ {
				fn()
			}
			if el := time.Since(start); el >= per {
				reps = append(reps, float64(el)/float64(calls))
				break
			}
		}
	}
	return median(reps)
}

// benchKey is the fixed key of every encrypted store, channel and
// directory the benchmark opens.
func benchKey() [ecrypto.KeySize]byte {
	var key [ecrypto.KeySize]byte
	for i := range key {
		key[i] = byte(0xA0 + i)
	}
	return key
}

// --- mem -------------------------------------------------------------

func newProbePool(nodes, size int) (*mem.Pool, error) {
	arena, err := mem.NewArena(nodes, size)
	if err != nil {
		return nil, err
	}
	return mem.NewPool(arena), nil
}

func probeMbox(pc *probeCtx) (float64, error) {
	pool, err := newProbePool(4, pc.sh.size)
	if err != nil {
		return 0, err
	}
	box, err := mem.NewMbox(64)
	if err != nil {
		return 0, err
	}
	node := pool.Get()
	return timeLoop(pc.budget, 256, func() {
		box.Enqueue(node)
		box.Dequeue()
	}), nil
}

func probeMboxBatch(pc *probeCtx) (float64, error) {
	pool, err := newProbePool(pc.sh.batch, pc.sh.size)
	if err != nil {
		return 0, err
	}
	box, err := mem.NewMbox(64)
	if err != nil {
		return 0, err
	}
	nodes := make([]*mem.Node, pc.sh.batch)
	if pool.GetBatch(nodes) != pc.sh.batch {
		return 0, errors.New("probe pool too small")
	}
	out := make([]*mem.Node, pc.sh.batch)
	perBatch := timeLoop(pc.budget, 64, func() {
		box.EnqueueBatch(nodes)
		box.DequeueBatch(out)
	})
	return perBatch / float64(pc.sh.batch), nil
}

func probePool(pc *probeCtx) (float64, error) {
	pool, err := newProbePool(64, pc.sh.size)
	if err != nil {
		return 0, err
	}
	return timeLoop(pc.budget, 256, func() {
		_ = pool.Put(pool.Get()) // a node just taken always goes back
	}), nil
}

// --- ecrypto ---------------------------------------------------------

func probeSeal(pc *probeCtx) (float64, error) {
	c, err := ecrypto.NewCipher(benchKey(), 1)
	if err != nil {
		return 0, err
	}
	plain := make([]byte, pc.sh.size)
	dst := make([]byte, 0, ecrypto.SealedLen(pc.sh.size))
	return timeLoop(pc.budget, 64, func() { dst = c.Seal(dst[:0], plain, nil) }), nil
}

func probeOpen(pc *probeCtx) (float64, error) {
	c, err := ecrypto.NewCipher(benchKey(), 1)
	if err != nil {
		return 0, err
	}
	blob := c.Seal(nil, make([]byte, pc.sh.size), nil)
	dst := make([]byte, 0, pc.sh.size)
	var openErr error
	ns := timeLoop(pc.budget, 64, func() {
		if dst, err = c.Open(dst[:0], blob, nil); err != nil {
			openErr = err
		}
	})
	return ns, openErr
}

func probeDetSeal(pc *probeCtx) (float64, error) {
	d, err := ecrypto.NewDeterministic(benchKey())
	if err != nil {
		return 0, err
	}
	plain := make([]byte, pc.sh.size)
	return timeLoop(pc.budget, 64, func() { _ = d.Seal(plain) }), nil
}

// --- sgx -------------------------------------------------------------

func probeEnclave() (*sgx.Context, *sgx.Enclave, error) {
	p := sgx.NewPlatform() // the default sgx cost model, as in the workloads
	e, err := p.CreateEnclave("probe", core.DefaultEnclaveSize)
	if err != nil {
		return nil, nil, err
	}
	return sgx.NewContext(p), e, nil
}

func probeCrossing(pc *probeCtx) (float64, error) {
	ctx, e, err := probeEnclave()
	if err != nil {
		return 0, err
	}
	var enterErr error
	pair := timeLoop(pc.budget, 16, func() {
		if err := ctx.Enter(e); err != nil {
			enterErr = err
		}
		ctx.Exit()
	})
	return pair / 2, enterErr // an enter and an exit are one crossing each
}

func probeECall(pc *probeCtx) (float64, error) {
	ctx, e, err := probeEnclave()
	if err != nil {
		return 0, err
	}
	in, out := make([]byte, pc.sh.size), make([]byte, pc.sh.size)
	var callErr error
	ns := timeLoop(pc.budget, 16, func() {
		if err := ctx.ECall(e, in, out, func() {}); err != nil {
			callErr = err
		}
	})
	return ns, callErr
}

func probeRand(pc *probeCtx) (float64, error) {
	_, e, err := probeEnclave()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1024)
	return timeLoop(pc.budget, 4, func() { e.ReadRand(buf) }), nil
}

// --- core ------------------------------------------------------------

// probeHop times one channel hop as the repository's own channel
// benchmarks do: a runtime is built but not started, and one goroutine
// sends on one endpoint and receives on the other, so the number is the
// CPU a message costs (pool, copy, mbox, and with enc seal and open
// between two enclaves) with no scheduling in it; core.wake_us measures
// the scheduling. A batch of one takes the Send/Recv path, larger ones
// SendBatch/RecvBatch.
func probeHop(budget time.Duration, size, batch int, enc bool) (float64, error) {
	idle := func(*core.Self) {}
	cfg := core.Config{
		Workers:  []core.WorkerSpec{{}},
		Actors:   []core.Spec{{Name: "src", Body: idle}, {Name: "dst", Body: idle}},
		Channels: []core.ChannelSpec{{Name: "hop", A: "src", B: "dst"}},
	}
	if enc {
		cfg.Enclaves = []core.EnclaveSpec{{Name: "e-src"}, {Name: "e-dst"}}
		cfg.Actors[0].Enclave, cfg.Actors[1].Enclave = "e-src", "e-dst"
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(), cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Stop()
	src, err := rt.EndpointForTest("src", "hop")
	if err != nil {
		return 0, err
	}
	dst, err := rt.EndpointForTest("dst", "hop")
	if err != nil {
		return 0, err
	}

	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = make([]byte, size)
	}
	bufs, lens := core.BatchBufs(batch, size)
	var hopErr error
	if batch == 1 {
		ns := timeLoop(budget, 64, func() {
			if err := src.Send(payloads[0]); err != nil {
				hopErr = err
			}
			if _, ok, err := dst.Recv(bufs[0]); !ok || err != nil {
				hopErr = fmt.Errorf("recv: ok=%v err=%v", ok, err)
			}
		})
		return ns, hopErr
	}
	perBatch := timeLoop(budget, 4, func() {
		if n, err := src.SendBatch(payloads); n != batch {
			hopErr = fmt.Errorf("sent %d of %d: %v", n, batch, err)
		}
		if n, err := dst.RecvBatch(bufs, lens); n != batch {
			hopErr = fmt.Errorf("received %d of %d: %v", n, batch, err)
		}
	})
	return perBatch / float64(batch), hopErr
}

// probeWake measures one doorbell wake: the sender is paced at 1 kHz by
// the probe, so the consumer's worker has parked before every message,
// and the sample is send → consumer body has the message.
func probeWake(pc *probeCtx) (float64, error) {
	var due atomic.Bool
	var waker atomic.Pointer[func()]
	var samples []float64 // written by the consumer's worker, read after Stop
	var observed atomic.Int64
	src := core.Spec{
		Name: "src", Worker: 0,
		Init: func(self *core.Self) error {
			w := self.Waker()
			waker.Store(&w)
			return nil
		},
		Body: func(self *core.Self) {
			if !due.CompareAndSwap(true, false) {
				return
			}
			var stamp [8]byte
			binary.LittleEndian.PutUint64(stamp[:], uint64(time.Now().UnixNano()))
			if self.MustChannel("w").Send(stamp[:]) == nil {
				self.Progress()
			}
		},
	}
	dst := core.Spec{
		Name: "dst", Worker: 1,
		Body: func(self *core.Self) {
			var stamp [8]byte
			n, ok, err := self.MustChannel("w").Recv(stamp[:])
			if !ok || err != nil || n != len(stamp) {
				return
			}
			sent := int64(binary.LittleEndian.Uint64(stamp[:]))
			samples = append(samples, float64(time.Now().UnixNano()-sent)/1e3)
			observed.Add(1)
			self.Progress()
		},
	}
	rt, err := core.NewRuntime(sgx.NewPlatform(), core.Config{
		Workers:  []core.WorkerSpec{{}, {}},
		Actors:   []core.Spec{src, dst},
		Channels: []core.ChannelSpec{{Name: "w", A: "src", B: "dst", Plaintext: true}},
	})
	if err != nil {
		return 0, err
	}
	if err := rt.Start(); err != nil {
		rt.Stop()
		return 0, err
	}
	for end := time.Now().Add(pc.budget); time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		due.Store(true)
		(*waker.Load())()
	}
	rt.Stop()
	if len(samples) == 0 {
		return 0, errors.New("no wake was observed")
	}
	return median(samples), nil
}

// --- pos -------------------------------------------------------------

const posProbeKeys = 1024

// probePOS opens an encrypted sharded store shaped like the workload's
// (file-backed with 2 KiB regions for 1 KiB values, volatile otherwise)
// and times one of its calls.
func probePOS(pc *probeCtx, what string) (float64, error) {
	budget, sh := pc.budget, pc.sh
	key := benchKey()
	opts := pos.ShardedOptions{Shards: kvShards, SizeBytes: 4 << 20, EncryptionKey: &key}
	if sh.size > 128 { // the default 256 B region holds no more
		opts.SizeBytes = 16 << 20
		opts.RegionSize = 2048
	}
	if sh.disk {
		dir, err := os.MkdirTemp(pc.scratch, "pos-probe-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	}
	store, err := pos.OpenSharded(opts)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	keys := make([][]byte, posProbeKeys)
	val := make([]byte, sh.size)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := store.Set(keys[i], val); err != nil {
			return 0, err
		}
	}
	if err := store.Flush(); err != nil {
		return 0, err
	}

	var callErr error
	i := 0
	next := func() []byte { i++; return keys[i%posProbeKeys] }
	switch what {
	case "get":
		ns := timeLoop(budget, 64, func() {
			if _, _, err := store.Get(next()); err != nil {
				callErr = err
			}
		})
		return ns, callErr
	case "set":
		ns := timeLoop(budget, 64, func() {
			if err := store.Set(next(), val); err != nil {
				callErr = err
			}
		})
		return ns, callErr
	case "clean":
		// Every flush reclaims what it outdated, so there is nothing left
		// to free: this times the cleaner's walk over all buckets.
		ns := timeLoop(budget, 1, func() {
			for s := 0; s < store.Shards(); s++ {
				if _, err := store.Shard(s).Clean(); err != nil {
					callErr = err
				}
			}
		})
		return ns / 1e6, callErr
	}
	// flush: dirty a quarter of the keys, then time the write-back alone.
	per := budget / probeRepeats
	reps := make([]float64, 0, probeRepeats)
	for r := 0; r < probeRepeats; r++ {
		var spent time.Duration
		calls := 0
		for spent < per {
			for k := 0; k < posProbeKeys/4; k++ {
				if err := store.Set(next(), val); err != nil {
					return 0, err
				}
			}
			t0 := time.Now()
			if err := store.Flush(); err != nil {
				return 0, err
			}
			spent += time.Since(t0)
			calls++
		}
		reps = append(reps, float64(spent)/float64(calls)/1e6)
	}
	return median(reps), nil
}

// --- transport -------------------------------------------------------

// tcpPair returns a connected loopback pair.
func tcpPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	server, err = ln.Accept()
	if err != nil {
		client.Close()
		return nil, nil, err
	}
	return client, server, nil
}

// probeTransport times framed calls against a transport.Serve echo
// handler on loopback, depth in flight: the socket and Go netpoll cost
// of a request with no actors behind it. Depth 1 yields µs per round
// trip, deeper pipelines ns per call.
func probeTransport(budget time.Duration, size, depth int) (float64, error) {
	client, server, err := tcpPair()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer server.Close()
		_ = transport.Serve(server, func(f transport.Frame) (transport.Frame, bool) {
			return transport.Frame{Type: transport.TResponse, Payload: f.Payload}, true
		}, transport.ServeOptions{}) // ends when the client closes
	}()
	defer wg.Wait()
	sess, err := transport.Connect(client, transport.SessionOptions{Depth: depth})
	if err != nil {
		return 0, err // Connect closed the connection
	}
	defer sess.Close()

	payload := make([]byte, size)
	if depth == 1 {
		var callErr error
		ns := timeLoop(budget, 1, func() {
			if _, err := sess.Call(transport.TRequest, payload); err != nil {
				callErr = err
			}
		})
		return ns / 1e3, callErr
	}
	ring := make([]*transport.Call, 0, depth)
	var callErr error
	ns := timeLoop(budget, depth, func() {
		if len(ring) == depth {
			if _, err := sess.Wait(ring[0]); err != nil {
				callErr = err
			}
			ring = append(ring[:0], ring[1:]...)
		}
		c, err := sess.Issue(transport.TRequest, payload)
		if err != nil {
			callErr = err
			return
		}
		ring = append(ring, c)
	})
	for _, c := range ring {
		if _, err := sess.Wait(c); err != nil {
			callErr = err
		}
	}
	return ns, callErr
}

// --- netloop ---------------------------------------------------------

// probeNetloop times write of 1 B to a registered loopback connection →
// handler entered. The workloads run the default per-connection pumps,
// so the readiness loop's only traffic in a run is this probe's, and
// its backpressure counters are read here.
func probeNetloop(pc *probeCtx) (float64, error) {
	loop, err := netloop.New(netloop.Config{Enabled: true})
	if err != nil {
		return 0, err
	}
	defer loop.Close()
	client, server, err := tcpPair()
	if err != nil {
		return 0, err
	}
	defer client.Close()
	defer server.Close()
	rc, err := server.(syscall.Conn).SyscallConn()
	if err != nil {
		return 0, err
	}
	entered := make(chan time.Time, 1)
	buf := make([]byte, 16)
	reg, err := loop.Register(rc, func() netloop.Action {
		now := time.Now()
		for {
			n, again, closed := netloop.RawRead(rc, buf)
			if closed {
				return netloop.Detach
			}
			if n > 0 {
				select {
				case entered <- now:
				default:
				}
			}
			if again {
				return netloop.Rearm
			}
		}
	})
	if err != nil {
		return 0, err
	}
	defer reg.Close()

	var samples []float64
	one := []byte{1}
	for end := time.Now().Add(pc.budget); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := client.Write(one); err != nil {
			return 0, err
		}
		select {
		case at := <-entered:
			samples = append(samples, float64(at.Sub(t0))/1e3)
		case <-time.After(time.Second):
			return 0, errors.New("netloop handler never ran")
		}
	}
	st := loop.Stats()
	pc.extra["netloop.retries"] = float64(st.Retries)
	pc.extra["netloop.sheds"] = float64(st.Sheds)
	return median(samples), nil
}

// --- netactors -------------------------------------------------------

const echoMsgBytes = 128

// probeEcho runs the OPENER/ACCEPTER/READER/echo/WRITER deployment of
// netactors' own latency probe with one client that keeps inflight
// 128 B messages outstanding: what the actor network path costs with no
// service behind it. One in flight yields µs per round trip, more yield
// ns per message.
func probeEcho(budget time.Duration, inflight int) (float64, error) {
	sys := netactors.NewSystem()
	defer sys.Shutdown()
	addrCh := make(chan string, 1)
	rt, err := core.NewRuntime(sgx.NewPlatform(), core.Config{
		Workers: []core.WorkerSpec{{}, {}},
		Actors: []core.Spec{
			{Name: "echo", Worker: 0, Body: echoBody(addrCh)},
			sys.OpenerSpec("opener", 1, "open"),
			sys.AccepterSpec("accepter", 1, "accept"),
			sys.ReaderSpec("reader", 1, "read"),
			sys.WriterSpec("writer", 1, "write"),
		},
		Channels: []core.ChannelSpec{
			{Name: "open", A: "echo", B: "opener"},
			{Name: "accept", A: "echo", B: "accepter"},
			{Name: "read", A: "echo", B: "reader"},
			{Name: "write", A: "echo", B: "writer"},
		},
	})
	if err != nil {
		return 0, err
	}
	if err := rt.Start(); err != nil {
		rt.Stop()
		return 0, err
	}
	defer rt.Stop()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		return 0, errors.New("echo listener did not come up")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()

	out := make([]byte, inflight*echoMsgBytes)
	back := make([]byte, len(out))
	var ioErr error
	exchange := func() {
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(out); err != nil {
			ioErr = err
			return
		}
		if _, err := io.ReadFull(conn, back); err != nil {
			ioErr = err
		}
	}
	for i := 0; i < 20 && ioErr == nil; i++ {
		exchange() // the accept and the first watch are not the steady path
	}
	if ioErr != nil {
		return 0, ioErr
	}
	ns := timeLoop(budget, 1, exchange)
	if inflight == 1 {
		return ns / 1e3, ioErr
	}
	return ns / float64(inflight), ioErr
}

// echoBody listens, watches what is accepted and writes back what is
// read.
func echoBody(addrCh chan<- string) core.Body {
	phase := 0
	buf := make([]byte, core.DefaultNodePayload)
	var scratch []byte
	send := func(ep *core.Endpoint, m netactors.Msg) bool {
		var err error
		if scratch, err = m.AppendTo(scratch[:0]); err != nil {
			return false
		}
		return ep.Send(scratch) == nil
	}
	return func(self *core.Self) {
		switch phase {
		case 0:
			if send(self.MustChannel("open"), netactors.Msg{Type: netactors.MsgListen, Data: []byte("127.0.0.1:0")}) {
				phase = 1
				self.Progress()
			}
		case 1:
			n, ok, _ := self.MustChannel("open").Recv(buf)
			if !ok {
				return
			}
			msg, err := netactors.ParseMsg(buf[:n])
			if err != nil {
				return
			}
			addrCh <- string(msg.Data)
			if send(self.MustChannel("accept"), netactors.Msg{Type: netactors.MsgWatch, Sock: msg.Sock}) {
				phase = 2
				self.Progress()
			}
		case 2:
			if n, ok, _ := self.MustChannel("accept").Recv(buf); ok {
				if msg, err := netactors.ParseMsg(buf[:n]); err == nil && msg.Type == netactors.MsgAccepted {
					send(self.MustChannel("read"), netactors.Msg{Type: netactors.MsgWatch, Sock: msg.Sock})
					self.Progress()
				}
			}
			if n, ok, _ := self.MustChannel("read").Recv(buf); ok {
				if msg, err := netactors.ParseMsg(buf[:n]); err == nil && msg.Type == netactors.MsgData {
					send(self.MustChannel("write"), netactors.Msg{Type: netactors.MsgData, Sock: msg.Sock, Data: msg.Data})
					self.Progress()
				}
			}
		}
	}
}

// --- kv, xmpp, smc ---------------------------------------------------

// probeCodec times one request's share of the public KV codec: encode
// and parse the request, encode and parse the response.
func probeCodec(pc *probeCtx) (float64, error) {
	req := kv.Request{Op: kv.OpSet, ID: 7, Key: []byte("key-1234"), Val: make([]byte, pc.sh.size)}
	var buf []byte
	var codecErr error
	ns := timeLoop(pc.budget, 64, func() {
		var err error
		if buf, err = req.AppendTo(buf[:0]); err != nil {
			codecErr = err
		}
		parsed, _, err := kv.ParseRequest(buf)
		if err != nil {
			codecErr = err
		}
		if buf, err = (kv.Response{Status: kv.StatusValue, ID: parsed.ID, Val: parsed.Val}).AppendTo(buf[:0]); err != nil {
			codecErr = err
		}
		if _, _, err := kv.ParseResponse(buf); err != nil {
			codecErr = err
		}
	})
	return ns, codecErr
}

func probeStanzaScan(pc *probeCtx) (float64, error) {
	raw := []byte(stanza.Message(xmppSender, xmppReceiver, fillASCII(pc.sh.size)))
	var sc stanza.Scanner
	var scanErr error
	ns := timeLoop(pc.budget, 64, func() {
		sc.Feed(raw)
		if _, ok, err := sc.Next(); err != nil || !ok {
			scanErr = fmt.Errorf("stanza scan: ok=%v err=%v", ok, err)
		}
	})
	return ns, scanErr
}

func fillASCII(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return string(b)
}

func probeOnlineGet(pc *probeCtx) (float64, error) {
	list, err := xmpp.NewOnlineList(true, benchKey())
	if err != nil {
		return 0, err
	}
	list.Add(xmpp.OnlineEntry{User: xmppReceiver, Sock: 7, Key: "00"})
	var missing bool
	ns := timeLoop(pc.budget, 64, func() {
		if _, ok := list.Get(xmppReceiver); !ok {
			missing = true
		}
	})
	if missing {
		return 0, errors.New("online entry not found")
	}
	return ns, nil
}

// probeSDKRound times the paper's EC baseline — the SGX-SDK deployment
// of the same secure sum — so EA/EC is a ratio from one process.
func probeSDKRound(pc *probeCtx) (float64, error) {
	sdk, err := smc.NewSDK(smc.Options{Parties: smcParties, Dim: smcDim})
	if err != nil {
		return 0, err
	}
	defer sdk.Close()
	var roundErr error
	ns := timeLoop(pc.budget, 1, func() {
		if _, err := sdk.Round(); err != nil {
			roundErr = err
		}
	})
	return ns / 1e3, roundErr
}
