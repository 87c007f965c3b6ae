// Command posctl inspects and manipulates a Persistent Object Store
// file (Section 4.1 of the paper).
//
// Usage:
//
//	posctl -store /tmp/app.pos set mykey myvalue
//	posctl -store /tmp/app.pos get mykey
//	posctl -store /tmp/app.pos del mykey
//	posctl -store /tmp/app.pos list
//	posctl -store /tmp/app.pos stats
//	posctl -store /tmp/app.pos clean
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "posctl:", err)
		os.Exit(1)
	}
}

func run() error {
	store := flag.String("store", "", "store file path (required)")
	size := flag.Int("size", 16<<20, "store size in bytes (used at creation)")
	buckets := flag.Int("buckets", 0, "bucket count (0: the stored count, or a full superblock page for a new store; nonzero must match an existing store)")
	region := flag.Int("region", 0, "region size in bytes")
	metrics := flag.String("metrics", "", "serve store telemetry over HTTP at this address, e.g. :9090, until interrupted (like kvserver/xmppserver)")
	flag.Parse()

	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("command required: set|get|del|list|stats|clean")
	}

	s, err := pos.Open(pos.Options{
		Path: *store, SizeBytes: *size, Buckets: *buckets, RegionSize: *region,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	if *metrics != "" {
		reg := telemetry.New(1)
		s.AttachTelemetry(reg)
		bound, stopHTTP, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stopHTTP()
		fmt.Fprintf(os.Stderr, "posctl: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
		if err := execute(s, args); err != nil {
			return err
		}
		// Keep the exporter up so the store counters the command just
		// produced can actually be scraped; interrupt to exit.
		fmt.Fprintln(os.Stderr, "posctl: serving metrics until interrupted (ctrl-c to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}
	return execute(s, args)
}

// execute runs one posctl command against the open store.
func execute(s *pos.Store, args []string) error {
	switch args[0] {
	case "set":
		if len(args) != 3 {
			return fmt.Errorf("usage: set <key> <value>")
		}
		if err := s.Set([]byte(args[1]), []byte(args[2])); err != nil {
			return err
		}
		return s.Sync()
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		val, ok, err := s.Get([]byte(args[1]))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %q not found", args[1])
		}
		fmt.Println(string(val))
		return nil
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		found, err := s.Delete([]byte(args[1]))
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key %q not found", args[1])
		}
		return s.Sync()
	case "list":
		count := 0
		err := s.Range(func(key, value []byte) bool {
			fmt.Printf("%s\t%s\n", key, value)
			count++
			return true
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d keys\n", count)
		return nil
	case "stats":
		st := s.Stats()
		fmt.Printf("regions: %d total, %d free\nsets: %d  gets: %d  cleaned: %d\n",
			st.Regions, st.FreeRegions, st.Sets, st.Gets, st.Cleaned)
		return nil
	case "clean":
		n, err := s.Clean()
		if err != nil {
			return err
		}
		fmt.Printf("reclaimed %d regions\n", n)
		return s.Sync()
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
