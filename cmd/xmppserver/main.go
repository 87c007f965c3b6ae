// Command xmppserver runs the EActors secure instant-messaging service
// (Section 5.1 of the paper): an enclaved CONNECTOR, N enclaved XMPP
// shards with untrusted READER/WRITER networking eactors, O2O routing
// and per-member re-encrypted group chats.
//
// Usage:
//
//	xmppserver -listen 127.0.0.1:5222 -shards 4 -trusted -enclaves 4
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/eactors/eactors-go/internal/observe"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/xmpp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xmppserver:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5222", "TCP listen address")
	shards := flag.Int("shards", 1, "number of XMPP eactors")
	trusted := flag.Bool("trusted", true, "run CONNECTOR and XMPP eactors inside enclaves")
	enclaves := flag.Int("enclaves", 1, "number of enclaves hosting the XMPP eactors (when trusted)")
	rooms := flag.String("rooms", "", "comma-separated group chats confined to dedicated enclaves")
	directory := flag.Bool("directory", true, "keep the online directory in a sealed persistent object store (the paper's Section 5.1 design)")
	obs := observe.Register(flag.CommandLine)
	flag.Parse()
	if err := obs.Check(); err != nil {
		return err
	}

	var dedicated []string
	if *rooms != "" {
		dedicated = strings.Split(*rooms, ",")
	}
	var dirStore *pos.Store
	if *directory {
		// The online directory is ephemeral per boot, so a fresh sealing
		// key each start is correct.
		var key [32]byte
		if _, err := rand.Read(key[:]); err != nil {
			return err
		}
		var err error
		if dirStore, err = pos.Open(pos.Options{SizeBytes: 8 << 20, EncryptionKey: &key}); err != nil {
			return fmt.Errorf("directory store: %w", err)
		}
		defer dirStore.Close()
	}
	srv, err := xmpp.Start(xmpp.Options{
		ListenAddr:       *listen,
		Shards:           *shards,
		Trusted:          *trusted,
		EnclaveCount:     *enclaves,
		DedicatedRooms:   dedicated,
		DirectoryStore:   dirStore,
		Telemetry:        obs.Telemetry(),
		Trace:            obs.Trace,
		TraceSampleEvery: obs.TraceSample,
		Profile:          obs.Profile,
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	fmt.Printf("xmppserver: listening on %s (shards=%d trusted=%v enclaves=%d)\n",
		srv.Addr(), *shards, *trusted, *enclaves)
	return obs.Run("xmppserver", srv, func() {
		st := srv.Stats()
		report := srv.Runtime().Report()
		fmt.Printf("xmppserver: online=%d connections=%d routed=%d group-fanout=%d auth-failures=%d\n",
			srv.Online().Len(), st.Connections, st.Routed, st.GroupFanout, st.AuthFailures)
		fmt.Printf("xmppserver: crossings=%d pool-free=%d failed-actors=%v\n",
			report.Platform.Crossings, report.PublicPoolFree, report.FailedActors)
	})
}
