package bench

import (
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/load"
	"github.com/eactors/eactors-go/internal/sgx"
)

// FigKVConfig parameterises the KV shard-scaling sweep (figkv): the
// networked secure key-value service measured end to end — TCP clients
// through the untrusted FRONTEND into the enclaved KVSTORE pipeline and
// the sharded, cached POS behind it. One series per shard count, x =
// concurrent clients, so the figure shows where affinity-routed shards
// stop helping for a given offered load.
type FigKVConfig struct {
	Shards     []int
	Clients    []int
	Keys       int
	ValueBytes int
	// GetRatio is the GET fraction; the remainder splits SET/DEL 9:1,
	// matching eactors-load kv's default mix.
	GetRatio float64
	Trusted  bool
	Warmup   time.Duration
	Measure  time.Duration
}

// DefaultFigKV is the paper-style sweep: trusted deployment, encrypted
// store, GET-heavy mix.
func DefaultFigKV() FigKVConfig {
	return FigKVConfig{
		Shards:     []int{1, 2, 4, 8},
		Clients:    []int{2, 4, 8, 16},
		Keys:       4096,
		ValueBytes: 128,
		GetRatio:   0.9,
		Trusted:    true,
		Warmup:     time.Second,
		Measure:    5 * time.Second,
	}
}

// FigKVShardScaling measures service throughput for every (shards,
// clients) point.
func FigKVShardScaling(cfg FigKVConfig) ([]Row, error) {
	var rows []Row
	for _, shards := range cfg.Shards {
		for _, clients := range cfg.Clients {
			thr, err := runKVPoint(cfg, shards, clients)
			if err != nil {
				return nil, fmt.Errorf("bench: figkv shards=%d clients=%d: %w", shards, clients, err)
			}
			rows = append(rows, Row{
				Figure: "figkv", Series: fmt.Sprintf("shards=%d", shards),
				XLabel: "clients", X: float64(clients),
				Value: thr, Unit: "op/s",
			})
		}
	}
	return rows, nil
}

// runKVPoint starts one deployment, preloads the key space and drives
// it with closed-loop lockstep clients for the measure window.
func runKVPoint(cfg FigKVConfig, shards, clients int) (float64, error) {
	var key [ecrypto.KeySize]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	srv, err := kv.Start(kv.Options{
		Shards:        shards,
		Trusted:       cfg.Trusted,
		Platform:      sgx.NewPlatform(),
		EncryptionKey: &key,
		StoreSize:     4 << 20,
	})
	if err != nil {
		return 0, err
	}
	defer srv.Stop()

	st, err := load.RunKV(load.KV{
		Addr: srv.Addr(), Clients: clients, Depth: 1,
		Keys: cfg.Keys, Value: cfg.ValueBytes, GetRatio: cfg.GetRatio, Seed: 1, Preload: true,
		Warmup: cfg.Warmup, Measure: cfg.Measure,
	})
	if err != nil {
		return 0, err
	}
	return st.Rate(), nil
}
