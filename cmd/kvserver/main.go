// Command kvserver runs the EActors networked secure key-value service:
// an untrusted FRONTEND doing stream reassembly and key-affinity
// routing, N enclaved KVSTORE eactors, and a sharded, write-back-cached
// Persistent Object Store sealing every record at rest.
//
// Usage:
//
//	kvserver -listen 127.0.0.1:6380 -shards 4 -trusted -dir /var/lib/kv -encrypt
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/observe"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:6380", "TCP listen address")
	shards := flag.Int("shards", 4, "number of KVSTORE eactors / POS shards")
	trusted := flag.Bool("trusted", true, "run each KVSTORE eactor inside its own enclave")
	dir := flag.String("dir", "", "store directory (empty = volatile in-memory shards)")
	storeSize := flag.Int("store-size", 16<<20, "per-shard store size in bytes")
	encrypt := flag.Bool("encrypt", false, "seal every record at rest (see -key)")
	keyHex := flag.String("key", "", "hex store encryption key (with -encrypt; empty generates an ephemeral key — persisted stores then cannot reopen)")
	flush := flag.Duration("flush", 100*time.Millisecond, "write-back flush interval (negative = sync per drained burst)")
	sessionWindow := flag.Int("session-window", 0, "per-session flow-control advertisement in bytes (0 = transport default)")
	replayWindow := flag.Int("replay-window", 0, "per-session resend-dedup cache depth (0 = transport default)")
	obs := observe.Register(flag.CommandLine)
	flag.Parse()
	if err := obs.Check(); err != nil {
		return err
	}

	var encKey *[ecrypto.KeySize]byte
	if *encrypt {
		var key [ecrypto.KeySize]byte
		if *keyHex != "" {
			raw, err := hex.DecodeString(*keyHex)
			if err != nil || len(raw) != ecrypto.KeySize {
				return fmt.Errorf("-key must be %d hex bytes", ecrypto.KeySize)
			}
			copy(key[:], raw)
		} else {
			if _, err := rand.Read(key[:]); err != nil {
				return err
			}
			if *dir != "" {
				fmt.Println("kvserver: warning: ephemeral key over a persistent store — data unreadable after restart (pass -key)")
			}
		}
		encKey = &key
	}

	srv, err := kv.Start(kv.Options{
		ListenAddr:       *listen,
		Shards:           *shards,
		Trusted:          *trusted,
		Dir:              *dir,
		StoreSize:        *storeSize,
		EncryptionKey:    encKey,
		FlushInterval:    *flush,
		SessionWindow:    *sessionWindow,
		ReplayWindow:     *replayWindow,
		Telemetry:        obs.Telemetry(),
		Trace:            obs.Trace,
		TraceSampleEvery: obs.TraceSample,
		Profile:          obs.Profile,
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	fmt.Printf("kvserver: listening on %s (shards=%d trusted=%v encrypted=%v dir=%q)\n",
		srv.Addr(), *shards, *trusted, encKey != nil, *dir)
	return obs.Run("kvserver", srv, func() {
		st := srv.Stats()
		ss := srv.Store().Stats()
		fmt.Printf("kvserver: gets=%d sets=%d dels=%d not-found=%d errors=%d\n",
			st.Gets, st.Sets, st.Dels, st.NotFound, st.Errors)
		fmt.Printf("kvserver: sessions=%d replayed=%d\n", st.Sessions, st.Replayed)
		fmt.Printf("kvserver: cache-hits=%d misses=%d dirty=%d flushes=%d flushed-ops=%d sync-failures=%d\n",
			ss.Hits, ss.Misses, ss.Dirty, ss.Flushes, ss.FlushedOps, ss.SyncFailures)
	})
}
