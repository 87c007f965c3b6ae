package load

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eactors/eactors-go/internal/kv"
)

// kvTimeout bounds each dial and each call of a KV run.
const kvTimeout = 10 * time.Second

// KV configures a closed-loop run against a KV server.
type KV struct {
	Addr string
	// Clients is the number of connections, one client goroutine each.
	Clients int
	// Depth is the requests kept in flight per connection; 1 is lockstep.
	Depth int
	// Keys is the key space, "key-0" … "key-<Keys−1>", chosen uniformly.
	Keys int
	// Value is the SET value size in bytes.
	Value int
	// GetRatio is the share of GETs; the rest split SET/DEL 9:1.
	GetRatio float64
	// Seed seeds each client's key, op and value choice (client i uses
	// Seed+i).
	Seed int64
	// Preload writes every key once before the run, so no GET misses
	// until a DEL.
	Preload         bool
	Warmup, Measure time.Duration
}

// RunKV dials every connection, then drives them for the window. Each
// keeps a sliding ring of Depth requests in flight: issue the next op,
// and once the ring is full wait for the oldest. Latency is
// issue-to-completion, so at Depth > 1 it includes the wait behind
// ring-mates. A failed Wait or a StatusErr reply counts as an error; a
// failed issue poisons the session, and that client stops.
func RunKV(cfg KV) (Stats, error) {
	depth := max(cfg.Depth, 1)
	keys := make([][]byte, max(cfg.Keys, 1))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	conns := make([]*kv.PipelinedClient, 0, cfg.Clients)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < cfg.Clients; i++ {
		c, err := kv.DialPipelined(cfg.Addr, kv.PipelineOptions{Depth: depth, Timeout: kvTimeout})
		if err != nil {
			return Stats{}, fmt.Errorf("load: dial kv client %d: %w", i, err)
		}
		conns = append(conns, c)
	}
	if cfg.Preload && len(conns) > 0 {
		value := make([]byte, cfg.Value)
		for _, k := range keys {
			if err := conns[0].Set(k, value); err != nil {
				return Stats{}, fmt.Errorf("load: preload %s: %w", k, err)
			}
		}
	}

	type slot struct {
		p     *kv.Pending
		start time.Time
	}
	return Measure(len(conns), cfg.Warmup, cfg.Measure, func(id int, w *Window) {
		c := conns[id]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
		value := make([]byte, cfg.Value)
		rng.Read(value)
		ring := make([]slot, 0, depth)
		reap := func() {
			s := ring[0]
			ring = append(ring[:0], ring[1:]...)
			resp, err := s.p.Wait()
			if err != nil || resp.Status == kv.StatusErr {
				w.Fail()
				return
			}
			w.Done(s.start)
		}
		for !w.Stopped() {
			key := keys[rng.Intn(len(keys))]
			start := time.Now()
			var p *kv.Pending
			var err error
			switch r := rng.Float64(); {
			case r < cfg.GetRatio:
				p, err = c.IssueGet(key)
			case r < cfg.GetRatio+(1-cfg.GetRatio)*0.9:
				p, err = c.IssueSet(key, value)
			default:
				p, err = c.IssueDel(key)
			}
			if err != nil {
				w.Fail()
				break
			}
			if ring = append(ring, slot{p, start}); len(ring) == depth {
				reap()
			}
		}
		for len(ring) > 0 {
			reap()
		}
	}), nil
}
