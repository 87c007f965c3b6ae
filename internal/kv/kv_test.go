package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/sgx"
)

func TestRequestRoundTrip(t *testing.T) {
	r := Request{Op: OpSet, ID: 7, Key: []byte("user:1"), Val: []byte("alice")}
	buf, err := r.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := ParseRequest(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("ParseRequest n=%d err=%v", n, err)
	}
	if got.Op != r.Op || got.ID != r.ID || !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Val, r.Val) {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, _, err := ParseRequest(buf[:5]); err != ErrShortFrame {
		t.Fatalf("short parse err = %v", err)
	}
	if _, err := (Request{Key: make([]byte, MaxKey+1)}).AppendTo(nil); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	f := func(status uint8, id uint32, val []byte) bool {
		if len(val) > MaxVal {
			val = val[:MaxVal]
		}
		r := Response{Status: Status(status), ID: id, Val: val}
		buf, err := r.AppendTo(nil)
		if err != nil {
			return false
		}
		got, n, err := ParseResponse(buf)
		return err == nil && n == len(buf) && got.Status == r.Status &&
			got.ID == r.ID && bytes.Equal(got.Val, r.Val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Platform == nil {
		opts.Platform = sgx.NewPlatform(sgx.WithCostModel(sgx.ZeroCostModel()))
	}
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("kv.Start: %v", err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func TestKVEndToEnd(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 2, Trusted: true})
	c := dialPipelinedT(t, srv, PipelineOptions{})

	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if err := c.Set([]byte("user:1"), []byte("alice")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	val, ok, err := c.Get([]byte("user:1"))
	if err != nil || !ok || string(val) != "alice" {
		t.Fatalf("Get = %q ok=%v err=%v", val, ok, err)
	}
	found, err := c.Del([]byte("user:1"))
	if err != nil || !found {
		t.Fatalf("Del = %v, %v", found, err)
	}
	if found, err := c.Del([]byte("user:1")); err != nil || found {
		t.Fatalf("second Del = %v, %v", found, err)
	}
	st := srv.Stats()
	if st.Gets != 2 || st.Sets != 1 || st.Dels != 2 || st.NotFound != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestKVManyKeysAcrossShards(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 4})
	c := dialPipelinedT(t, srv, PipelineOptions{})
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := c.Set(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		val, ok, err := c.Get(k)
		if err != nil || !ok || string(val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v", k, val, ok, err)
		}
	}
}

// TestKVConcurrentClients is a -race regression: many connections
// hammer the service at once, across all shards.
func TestKVConcurrentClients(t *testing.T) {
	srv := startTestServer(t, Options{Shards: 4, Trusted: true})
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialPipelined(srv.Addr(), PipelineOptions{Timeout: 10 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 60; i++ {
				k := []byte(fmt.Sprintf("c%d-k%d", id, i%10))
				v := []byte(fmt.Sprintf("v%d", i))
				if err := c.Set(k, v); err != nil {
					errs <- fmt.Errorf("client %d Set: %w", id, err)
					return
				}
				got, ok, err := c.Get(k)
				if err != nil || !ok || !bytes.Equal(got, v) {
					errs <- fmt.Errorf("client %d Get = %q ok=%v err=%v", id, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestKVPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	key := [ecrypto.KeySize]byte{1, 2, 3, 4}
	srv := startTestServer(t, Options{Shards: 2, Dir: dir, EncryptionKey: &key})
	c := dialPipelinedT(t, srv, PipelineOptions{})
	for i := 0; i < 32; i++ {
		if err := c.Set([]byte(fmt.Sprintf("p%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	srv.Stop() // final write-back flush

	re := startTestServer(t, Options{Shards: 2, Dir: dir, EncryptionKey: &key})
	c2 := dialPipelinedT(t, re, PipelineOptions{})
	for i := 0; i < 32; i++ {
		val, ok, err := c2.Get([]byte(fmt.Sprintf("p%d", i)))
		if err != nil || !ok || string(val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(p%d) after restart = %q ok=%v err=%v", i, val, ok, err)
		}
	}
}

func TestKVStoreShardMismatch(t *testing.T) {
	store, err := pos.OpenSharded(pos.ShardedOptions{Shards: 4, SizeBytes: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Start(Options{Shards: 2, Store: store}); err == nil {
		t.Fatal("shard mismatch accepted")
	}
}
