package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
	"github.com/eactors/eactors-go/internal/kv"
	"github.com/eactors/eactors-go/internal/transport"
)

// KVRules weights the schedule toward the sites the KV service
// exercises: the write-back flusher syncs every few milliseconds (so
// SitePosSync fires constantly), every request crosses one encrypted
// FRONTEND→KVSTORE channel (seal site), and all internal legs ride the
// batched send path (send site).
func KVRules() []faults.Rule {
	return []faults.Rule{
		{Site: faults.SitePosSync, Class: faults.SyncFail, Rate: 0.30},
		{Site: faults.SiteSeal, Class: faults.SealCorrupt, Rate: 0.05},
		{Site: faults.SiteSend, Class: faults.SendFail, Rate: 0.05},
		{Site: faults.SiteSend, Class: faults.DoorbellDrop, Rate: 0.03},
	}
}

// kvConn is a reconnecting client: requests are retried until the op
// deadline (the session already resends at-least-once underneath; SET/DEL
// are idempotent and GET is read-only, so re-issuing is always safe), and
// any error that is not a plain call timeout tears the session down for a
// fresh dial — the same recovery a real cache client implements.
type kvConn struct {
	addr string
	c    *kv.PipelinedClient
}

func (cc *kvConn) redial(deadline time.Time) error {
	if cc.c != nil {
		_ = cc.c.Close()
		cc.c = nil
	}
	var err error
	for time.Now().Before(deadline) {
		var c *kv.PipelinedClient
		if c, err = kv.DialPipelined(cc.addr, kv.PipelineOptions{Timeout: time.Second}); err == nil {
			cc.c = c
			return nil
		}
	}
	return fmt.Errorf("chaos: redial %s: %w", cc.addr, err)
}

func (cc *kvConn) do(deadline time.Time, op func(*kv.PipelinedClient) error) error {
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: kv op deadline exceeded")
		}
		if cc.c == nil {
			if err := cc.redial(deadline); err != nil {
				return err
			}
		}
		err := op(cc.c)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, transport.ErrTimeout):
			// Request and every resend lost to injected faults: re-issue
			// on the same session (the late answer to the abandoned call
			// is dropped by opaque).
		default:
			_ = cc.c.Close()
			cc.c = nil
		}
	}
}

// RunKV drives the trusted, encrypted KV service under the chaos
// schedule: a sequential client applies random GET/SET/DEL ops over a
// small key space, mirroring them in a model map, and every confirmed
// GET must agree with the model exactly — the frontend's per-shard
// stages are FIFO, so a delayed duplicate of a confirmed write can
// never reorder past a later op on the same key. After the op budget a
// full sweep of the key space is checked against the model.
func RunKV(seed uint64, ops int, timeout time.Duration) (Result, error) {
	inj := faults.New(faults.Config{Seed: seed, Rules: KVRules()})
	res := Result{Seed: seed}
	var encKey [ecrypto.KeySize]byte
	for i := range encKey {
		encKey[i] = byte(seed) + byte(i)
	}
	srv, err := kv.Start(kv.Options{
		Shards:        2,
		Trusted:       true,
		EncryptionKey: &encKey,
		StoreSize:     1 << 20,
		// Tight flush period, so the injected sync failures fire many
		// times within the run and every failed flush gets retried.
		FlushInterval: 10 * time.Millisecond,
		Faults:        inj,
		// Observability stays on during chaos runs so a failing seed
		// leaves post-mortems: flight recorders plus densely sampled
		// traces (see dumpArtifacts).
		Telemetry:        true,
		Trace:            true,
		TraceSampleEvery: 8,
	})
	if err != nil {
		return res, err
	}
	defer srv.Stop()

	const keySpace = 16
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(int64(seed)))
	conn := &kvConn{addr: srv.Addr()}
	defer func() {
		if conn.c != nil {
			_ = conn.c.Close()
		}
	}()
	deadline := time.Now().Add(timeout)

	fail := func(op, key string, err error) (Result, error) {
		dumpArtifacts("kv", seed, srv.Runtime())
		return res, fmt.Errorf("chaos: kv %s %s after %d/%d ops (seed %d, %d faults injected): %w",
			op, key, res.Rounds, ops, seed, inj.Injected(), err)
	}
	checkGet := func(key string) error {
		var val []byte
		var found bool
		err := conn.do(deadline, func(c *kv.PipelinedClient) error {
			var err error
			val, found, err = c.Get([]byte(key))
			return err
		})
		if err != nil {
			return err
		}
		want, exists := model[key]
		if found != exists || (found && string(val) != want) {
			return fmt.Errorf("got %q found=%v, model %q exists=%v", val, found, want, exists)
		}
		return nil
	}

	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(keySpace))
		switch r := rng.Float64(); {
		case r < 0.45:
			val := fmt.Sprintf("%s=%d", key, i)
			if err := conn.do(deadline, func(c *kv.PipelinedClient) error {
				return c.Set([]byte(key), []byte(val))
			}); err != nil {
				return fail("SET", key, err)
			}
			model[key] = val
		case r < 0.65:
			if err := conn.do(deadline, func(c *kv.PipelinedClient) error {
				_, err := c.Del([]byte(key))
				return err
			}); err != nil {
				return fail("DEL", key, err)
			}
			delete(model, key)
		default:
			if err := checkGet(key); err != nil {
				return fail("GET", key, err)
			}
		}
		res.Rounds++
	}

	// Convergence sweep: every key in the space must match the model.
	for k := 0; k < keySpace; k++ {
		key := fmt.Sprintf("key-%d", k)
		if err := checkGet(key); err != nil {
			return fail("verify GET", key, err)
		}
	}
	res.Injected = inj.Injected()
	res.ByClass = inj.InjectedByClass()
	return res, nil
}
