package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/pos"
)

const (
	kvKeys    = 4096
	kvClients = 2 // = nproc on the reference host; one connection each
	kvShards  = 2
	// kvMaxDepth is the session's in-flight cap on every KV workload; the
	// lockstep workload simply never uses more than one slot, and the
	// preload and the read-back always pipeline.
	kvMaxDepth = 32
)

// kvShape is what distinguishes the three KV workloads; the deployment
// (2 trusted shards, encrypted store, framed transport) is common. The
// message shape gives the value size, the requests in flight per
// connection (its batch) and whether the shards are file-backed.
type kvShape struct {
	shape
	getPct int // share of GETs, the rest are SETs
}

// Self-describing values: every stored value names the key it belongs
// to, who wrote it and in which order, and carries a checksum, so a GET
// reply is checkable without a shadow copy of the store.
//
//	[0:8)   FNV-64a of the key
//	[8:12)  writer (connection id)
//	[12:20) writer's sequence number, starting at 1
//	[20:n-4) padding, byte(seq+i)
//	[n-4:n) CRC-32 of everything before
const valHeader = 20

func keyHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// fillValue writes the value for (hash, writer, seq) into buf, whose
// length is the value size.
func fillValue(buf []byte, hash uint64, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:], hash)
	binary.LittleEndian.PutUint32(buf[8:], writer)
	binary.LittleEndian.PutUint64(buf[12:], seq)
	body := len(buf) - 4
	for i := valHeader; i < body; i++ {
		buf[i] = byte(seq + uint64(i))
	}
	binary.LittleEndian.PutUint32(buf[body:], crc32.ChecksumIEEE(buf[:body]))
}

// parseValue checks a value's size and checksum and returns its fields.
func parseValue(val []byte, size int) (hash uint64, writer uint32, seq uint64, ok bool) {
	if len(val) != size || size < valHeader+4 {
		return 0, 0, 0, false
	}
	body := size - 4
	if binary.LittleEndian.Uint32(val[body:]) != crc32.ChecksumIEEE(val[:body]) {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(val[0:]), binary.LittleEndian.Uint32(val[8:]),
		binary.LittleEndian.Uint64(val[12:]), true
}

// kvInstance is a started KV deployment with its two connections. Key i
// is written only by connection i % kvClients, so for every key there is
// one writer whose acknowledged sequence numbers the replies can be
// checked against; GETs go to any key.
type kvInstance struct {
	shape kvShape
	seed  int64
	srv   *kv.Server
	store *pos.ShardedStore // non-nil when the benchmark opened it
	dir   string            // removed on stop when non-empty
	conns [kvClients]*kv.PipelinedClient

	keys   [][]byte
	hashes []uint64
	// acked[i] is the highest sequence number of key i whose SET was
	// acknowledged; written only by the key's owner.
	acked []uint64
	seq   [kvClients]uint64
}

func kvOwner(idx int) int { return idx % kvClients }

func startKV(shape kvShape) func(env) (instance, error) {
	return func(e env) (instance, error) {
		key := benchKey()
		in := &kvInstance{shape: shape, seed: e.seed}
		opts := kv.Options{
			Shards:           kvShards,
			Trusted:          true,
			EncryptionKey:    &key,
			StoreSize:        4 << 20,
			Trace:            e.traced,
			Profile:          e.traced,
			Telemetry:        e.traced,
			TraceSampleEvery: sampleEvery(e),
		}
		if shape.disk {
			// kv.Options cannot set the region size, and the default 256 B
			// region rejects 1 KiB values, so the store is opened here with
			// the geometry the workload names and handed to the server.
			var err error
			if in.dir, err = os.MkdirTemp(e.scratch, "kv-"); err != nil {
				return nil, err
			}
			store, err := pos.OpenSharded(pos.ShardedOptions{
				Shards:        kvShards,
				Dir:           in.dir,
				SizeBytes:     16 << 20,
				RegionSize:    2048,
				EncryptionKey: &key,
				FlushInterval: 100 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			in.store = store
			opts.Store = store
		}
		srv, err := kv.Start(opts)
		if err != nil {
			in.stop()
			return nil, err
		}
		in.srv = srv
		for c := range in.conns {
			in.conns[c], err = kv.DialPipelined(srv.Addr(), kv.PipelineOptions{Depth: kvMaxDepth})
			if err != nil {
				in.stop()
				return nil, err
			}
		}
		in.keys = make([][]byte, kvKeys)
		in.hashes = make([]uint64, kvKeys)
		in.acked = make([]uint64, kvKeys)
		for i := range in.keys {
			in.keys[i] = []byte(fmt.Sprintf("key-%d", i))
			in.hashes[i] = keyHash(in.keys[i])
		}
		if err := in.preload(); err != nil {
			in.stop()
			return nil, err
		}
		return in, nil
	}
}

// pipelined issues n requests with up to kvMaxDepth in flight and hands
// every reply to reply in issue order; a request that could not be
// issued reaches reply with the error.
func pipelined(n int, issue func(i int) (*kv.Pending, error), reply func(i int, resp kv.Response, err error)) {
	ring := make([]*kv.Pending, 0, kvMaxDepth)
	first := 0 // index of the request ring[0] belongs to
	reap := func() {
		resp, err := ring[0].Wait()
		ring = append(ring[:0], ring[1:]...)
		reply(first, resp, err)
		first++
	}
	for i := 0; i < n; i++ {
		p, err := issue(i)
		if err != nil {
			for len(ring) > 0 {
				reap()
			}
			reply(i, kv.Response{}, err)
			first++
			continue
		}
		if ring = append(ring, p); len(ring) == kvMaxDepth {
			reap()
		}
	}
	for len(ring) > 0 {
		reap()
	}
}

// preload has every connection write its own keys once, so no GET of
// the window can miss.
func (in *kvInstance) preload() error {
	val := make([]byte, in.shape.size)
	var firstErr error
	for c, conn := range in.conns {
		own := func(i int) int { return i*kvClients + c }
		pipelined(kvKeys/kvClients, func(i int) (*kv.Pending, error) {
			in.seq[c]++
			fillValue(val, in.hashes[own(i)], uint32(c), in.seq[c])
			in.acked[own(i)] = in.seq[c]
			return conn.IssueSet(in.keys[own(i)], val)
		}, func(i int, resp kv.Response, err error) {
			if err == nil && resp.Status != kv.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.Status, resp.Val)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("preload %s: %w", in.keys[own(i)], err)
			}
		})
	}
	return firstErr
}

func (in *kvInstance) clients() int { return kvClients }

func (in *kvInstance) layers() layers {
	return layers{
		rt:       in.srv.Runtime(),
		tracer:   in.srv.Tracer(),
		profile:  in.srv.CostProfile,
		store:    in.srv.Store(),
		sessions: in.conns[:],
		kvStats:  in.srv.Stats,
	}
}

// kvCall is one request in flight.
type kvCall struct {
	p      *kv.Pending
	issued time.Time
	idx    int
	set    bool
	// seq is the sequence written (SET) or the key's acknowledged
	// sequence when the GET was issued.
	seq uint64
}

// drive keeps shape.batch requests in flight on connection c: issue
// until the pipeline is full, then wait for the oldest. A reply that
// overtook an older one is observed when its turn comes, so at depth
// > 1 latency includes that head-of-line wait in the client — which is
// what a caller draining its pipeline in order sees.
func (in *kvInstance) drive(c int, stop *atomic.Bool, r *recorder) {
	conn := in.conns[c]
	depth := in.shape.batch
	ring := make([]kvCall, depth)
	head, n := 0, 0
	rng := newRNG(in.seed, c)
	val := make([]byte, in.shape.size)

	reap := func() {
		call := ring[head]
		head, n = (head+1)%depth, n-1
		resp, err := call.p.Wait()
		if err != nil {
			r.fail()
			return
		}
		if call.set {
			if resp.Status != kv.StatusOK {
				r.fail()
				return
			}
			if call.seq > in.acked[call.idx] {
				in.acked[call.idx] = call.seq
			}
		} else if !in.checkGet(c, call, resp) {
			r.fail()
			return
		}
		r.done(time.Since(call.issued))
	}

	for !stop.Load() {
		if n == depth {
			reap()
		}
		call := kvCall{issued: time.Now()}
		var err error
		if int(rng.next()%100) < in.shape.getPct {
			call.idx = int(rng.next() % kvKeys)
			if kvOwner(call.idx) == c { // another connection's entry is not ours to read
				call.seq = in.acked[call.idx]
			}
			call.p, err = conn.IssueGet(in.keys[call.idx])
		} else {
			call.idx = int(rng.next()%(kvKeys/kvClients))*kvClients + c
			call.set = true
			in.seq[c]++
			call.seq = in.seq[c]
			fillValue(val, in.hashes[call.idx], uint32(c), call.seq)
			call.p, err = conn.IssueSet(in.keys[call.idx], val)
		}
		if err != nil {
			// The session is gone; hammering it would only spin.
			r.fail()
			break
		}
		ring[(head+n)%depth] = call
		n++
	}
	for n > 0 {
		reap()
	}
}

// checkGet verifies a GET reply: it is a well-formed value written for
// that key by the key's owner, and on the caller's own keys at least as
// new as the last SET acknowledged before the GET was issued.
func (in *kvInstance) checkGet(c int, call kvCall, resp kv.Response) bool {
	if resp.Status != kv.StatusValue {
		return false
	}
	hash, writer, seq, ok := parseValue(resp.Val, in.shape.size)
	if !ok || hash != in.hashes[call.idx] || int(writer) != kvOwner(call.idx) || seq == 0 {
		return false
	}
	return kvOwner(call.idx) != c || seq >= call.seq
}

// verify reads every key back after the window, when nothing is in
// flight any more, and requires exactly the owner's last acknowledged
// sequence.
func (in *kvInstance) verify() (attempted, failed uint64) {
	pipelined(kvKeys, func(idx int) (*kv.Pending, error) {
		return in.conns[0].IssueGet(in.keys[idx])
	}, func(idx int, resp kv.Response, err error) {
		attempted++
		hash, writer, seq, ok := parseValue(resp.Val, in.shape.size)
		if err != nil || resp.Status != kv.StatusValue || !ok ||
			hash != in.hashes[idx] || int(writer) != kvOwner(idx) || seq != in.acked[idx] {
			failed++
		}
	})
	return attempted, failed
}

func (in *kvInstance) stop() {
	for _, c := range in.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	if in.srv != nil {
		in.srv.Stop()
	}
	if in.store != nil {
		_ = in.store.Close()
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
	}
}
