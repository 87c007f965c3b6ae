package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoorbellWakesIdleWorker checks that an idle worker reacts to work
// well before its idle-sleep backstop elapses.
func TestDoorbellWakesIdleWorker(t *testing.T) {
	processed := make(chan time.Time, 1)
	cfg := Config{
		Workers:   []WorkerSpec{{}, {}},
		IdleSleep: time.Second, // long backstop: only the doorbell can be fast
		Actors: []Spec{
			{Name: "producer", Worker: 0, Body: func(*Self) {}},
			{
				Name: "consumer", Worker: 1,
				Body: func(self *Self) {
					ch := self.MustChannel("link")
					buf := make([]byte, 16)
					if _, ok, _ := ch.Recv(buf); ok {
						select {
						case processed <- time.Now():
						default:
						}
						self.Progress()
					}
				},
			},
		},
		Channels: []ChannelSpec{{Name: "link", A: "producer", B: "consumer"}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// Let the consumer worker go fully idle.
	time.Sleep(50 * time.Millisecond)

	producerEp := rt.actors["producer"].endpoints["link"]
	sent := time.Now()
	if err := producerEp.Send([]byte("wake up")); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-processed:
		if latency := at.Sub(sent); latency > 200*time.Millisecond {
			t.Fatalf("doorbell latency %v (idle sleep is 1s — bell did not ring)", latency)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never processed")
	}
}

// TestWakerFromForeignGoroutine checks Self.Waker is safe and effective
// from outside the runtime.
func TestWakerFromForeignGoroutine(t *testing.T) {
	var polls atomic.Int64
	var waker func()
	ready := make(chan struct{})
	cfg := Config{
		Workers:   []WorkerSpec{{}},
		IdleSleep: time.Second,
		Actors: []Spec{{
			Name: "sleepy", Worker: 0,
			Init: func(self *Self) error {
				waker = self.Waker()
				close(ready)
				return nil
			},
			Body: func(*Self) { polls.Add(1) },
		}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	<-ready

	// Wait for the worker to go idle, then watch the poll counter.
	time.Sleep(100 * time.Millisecond)
	before := polls.Load()
	waker()
	deadline := time.Now().Add(300 * time.Millisecond)
	for polls.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("waker did not trigger a poll round within 300ms")
		}
	}
}

// TestDoorbellAtParkBoundary sends each message at a different offset
// from the consumer's last progress, spread over three spin budgets, so
// sends land before, across and after the worker's move from spinning to
// parking. With the idle-sleep backstop at an hour only the doorbell can
// deliver a message that lands after the park: a lost wakeup fails the
// test after one second instead of hanging it.
func TestDoorbellAtParkBoundary(t *testing.T) {
	const iterations = 1200
	// One message is in flight at a time, so one slot never blocks the
	// consumer.
	progress := make(chan time.Time, 1)
	cfg := Config{
		Workers:   []WorkerSpec{{}, {}},
		IdleSleep: time.Hour,
		Actors: []Spec{
			{Name: "producer", Worker: 0, Body: func(*Self) {}},
			{
				Name: "consumer", Worker: 1,
				Body: func(self *Self) {
					buf := make([]byte, 16)
					if _, ok, _ := self.MustChannel("link").Recv(buf); ok {
						self.Progress()
						progress <- time.Now()
					}
				},
			},
		},
		Channels: []ChannelSpec{{Name: "link", A: "producer", B: "consumer"}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	producer := rt.actors["producer"].endpoints["link"]
	last := time.Now()
	for i := 0; i < iterations; i++ {
		offset := time.Duration(i%61) * 3 * idleSpin / 60
		for time.Since(last) < offset {
			// Busy-wait: a timer sleep is coarser than the spin budget.
		}
		if err := producer.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case last = <-progress:
		case <-time.After(time.Second):
			t.Fatalf("message %d, sent %v after the consumer's last progress, not delivered within 1s (lost wakeup)", i, offset)
		}
	}
}

// TestIdleWorkersPark checks that the idle spin is bounded: in a runtime
// with nothing to do, every worker keeps reaching its idle wait. The idle
// counter is sharded per worker, so each worker's shard counts its own
// idle waits.
func TestIdleWorkersPark(t *testing.T) {
	const workers = 4
	cfg := Config{Telemetry: true, IdleSleep: time.Millisecond}
	for i := 0; i < workers; i++ {
		cfg.Workers = append(cfg.Workers, WorkerSpec{})
		cfg.Actors = append(cfg.Actors, Spec{Name: fmt.Sprintf("idle%d", i), Worker: i, Body: func(*Self) {}})
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	idles := func(w *Worker) uint64 { return rt.m.idles.Shard(w.id) }
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range rt.workers {
		for idles(w) < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d entered its idle wait %d times in 5s, want >= 3", w.id, idles(w))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWorkerAccessors covers the introspection surface.
func TestWorkerAccessors(t *testing.T) {
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{
			{Name: "a", Worker: 0, Body: func(*Self) {}},
			{Name: "b", Worker: 0, Body: func(*Self) {}},
		},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	workers := rt.workers
	if len(workers) != 1 || workers[0].ID() != 0 {
		t.Fatalf("workers = %v", workers)
	}
	names := workers[0].Actors()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("actor order = %v", names)
	}
	if workers[0].Context() == nil {
		t.Fatal("nil worker context")
	}
}

// TestEncryptedChannelTamper injects wire corruption: the receiver must
// surface an authentication error, not plaintext garbage — the paper's
// malicious-runtime protection.
func TestEncryptedChannelTamper(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if err := a.Send([]byte("sensitive")); err != nil {
		t.Fatal(err)
	}
	node, ok := b.in.Dequeue()
	if !ok {
		t.Fatal("no node in flight")
	}
	node.Buf()[node.Len()-1] ^= 0x80 // the hostile runtime flips a bit
	if !b.in.Enqueue(node) {
		t.Fatal("re-enqueue failed")
	}
	_, ok, err := b.Recv(make([]byte, 128))
	if !ok {
		t.Fatal("message vanished")
	}
	if err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	// The node must have returned to the pool despite the error.
	if free := b.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d after tamper, want 16", free)
	}
}

// TestRecvBatchTamper: a tampered frame inside a batch is consumed and
// its node returned to the pool, and the intact message behind it is
// still delivered.
func TestRecvBatchTamper(t *testing.T) {
	a, b, _ := buildPair(t, true, 8, 16, 128)
	if sent, err := a.SendBatch(frames("payload", "intact")); sent != 2 || err != nil {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	node, _ := b.in.Dequeue()
	node.Buf()[0] ^= 1
	intact, _ := b.in.Dequeue()
	b.in.Enqueue(node)
	b.in.Enqueue(intact)
	bufs, lens := BatchBufs(2, 128)
	n, err := b.RecvBatch(bufs, lens)
	if n != 1 || err == nil || string(bufs[0][:lens[0]]) != "intact" {
		t.Fatalf("tampered RecvBatch: n=%d err=%v first=%q", n, err, bufs[0][:lens[0]])
	}
	if free := b.pool.Free(); free != 16 {
		t.Fatalf("pool Free = %d after tamper, want 16", free)
	}
}

// TestStopRuntimeFromBody checks the cooperative-shutdown path used by
// every benchmark.
func TestStopRuntimeFromBody(t *testing.T) {
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{{
			Name: "quitter", Worker: 0,
			Body: func(self *Self) { self.StopRuntime() },
		}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		rt.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StopRuntime did not stop the runtime")
	}
	rt.Stop()
}

// TestChannelUnknownName covers the error path of Self.Channel.
func TestChannelUnknownName(t *testing.T) {
	gotErr := make(chan error, 1)
	cfg := Config{
		Workers: []WorkerSpec{{}},
		Actors: []Spec{{
			Name: "loner", Worker: 0,
			Init: func(self *Self) error {
				_, err := self.Channel("missing")
				gotErr <- err
				return nil
			},
			Body: func(*Self) {},
		}},
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := <-gotErr; err == nil {
		t.Fatal("unknown channel lookup succeeded")
	}
}
