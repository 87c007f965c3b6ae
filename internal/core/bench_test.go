package core

import (
	"errors"
	"fmt"
	"testing"
)

// benchChannelPingPong measures one direction of the channel hop:
// sender enqueues, receiver drains, batch messages at a time (batch=1
// is the classic Send/Recv path). All variants count messages, so the
// per-op numbers compare directly.
func benchChannelPingPong(b *testing.B, encrypted bool, batch int) {
	src, dst, _ := buildPair(b, encrypted, 256, 512, 256)
	payload := make([]byte, 64)
	b.ReportAllocs()
	if batch == 1 {
		buf := make([]byte, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Send(payload); err != nil {
				b.Fatal(err)
			}
			if _, ok, err := dst.Recv(buf); !ok || err != nil {
				b.Fatalf("Recv: ok=%v err=%v", ok, err)
			}
		}
		return
	}
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = payload
	}
	bufs, lens := BatchBufs(batch, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		sent, err := src.SendBatch(payloads)
		if err != nil || sent != batch {
			b.Fatalf("SendBatch = %d, %v", sent, err)
		}
		got, err := dst.RecvBatch(bufs, lens)
		if err != nil || got != batch {
			b.Fatalf("RecvBatch = %d, %v", got, err)
		}
	}
}

func BenchmarkChannelSingle(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchChannelPingPong(b, false, 1) })
	b.Run("enc", func(b *testing.B) { benchChannelPingPong(b, true, 1) })
}

func BenchmarkChannelBatch16(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchChannelPingPong(b, false, 16) })
	b.Run("enc", func(b *testing.B) { benchChannelPingPong(b, true, 16) })
}

func BenchmarkChannelBatch64(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchChannelPingPong(b, false, 64) })
	b.Run("enc", func(b *testing.B) { benchChannelPingPong(b, true, 64) })
}

// benchChannelPipelined measures a windowed stream: the sender keeps up
// to window messages in flight and the receiver drains opportunistically
// — the shape of real eactor traffic (bursts, not lockstep ping-pong).
func benchChannelPipelined(b *testing.B, src, dst *Endpoint, window int) {
	payload := make([]byte, 64)
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	inflight, received := 0, 0
	for received < b.N {
		for inflight < window && received+inflight < b.N {
			if err := src.Send(payload); err != nil {
				if errors.Is(err, ErrMailboxFull) {
					break
				}
				b.Fatal(err)
			}
			inflight++
		}
		for inflight > 0 {
			_, ok, err := dst.Recv(buf)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			inflight--
			received++
		}
	}
}

func BenchmarkChannelPipelined(b *testing.B) {
	const (
		window  = 16
		payload = 2048
	)
	b.Run("plain", func(b *testing.B) {
		src, dst, _ := buildPair(b, false, 256, 512, payload)
		benchChannelPipelined(b, src, dst, window)
	})
	b.Run("enc", func(b *testing.B) {
		src, dst, _ := buildPair(b, true, 256, 512, payload)
		benchChannelPipelined(b, src, dst, window)
	})
}

// BenchmarkChannelFanIn models the system-eactor drain pattern (WRITER,
// shard router): one consumer actor drains several inbound channels per
// invocation. The batch variant pays one dequeue CAS and
// one pool trip per channel per sweep instead of one per message.
func BenchmarkChannelFanIn(b *testing.B) {
	const (
		producers = 4
		burst     = 16 // messages queued per producer per sweep
	)
	build := func(b *testing.B) (srcs, sinks []*Endpoint) {
		cfg := Config{
			Workers:     []WorkerSpec{{}},
			PoolNodes:   512,
			NodePayload: 256,
			Actors:      []Spec{{Name: "consumer", Worker: 0, Body: func(*Self) {}}},
		}
		for p := 0; p < producers; p++ {
			name := fmt.Sprintf("prod%d", p)
			cfg.Actors = append(cfg.Actors, Spec{Name: name, Worker: 0, Body: func(*Self) {}})
			cfg.Channels = append(cfg.Channels, ChannelSpec{
				Name: fmt.Sprintf("link%d", p), A: name, B: "consumer", Capacity: 64,
			})
		}
		rt, err := NewRuntime(zeroPlatform(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Stop)
		for p := 0; p < producers; p++ {
			ch := fmt.Sprintf("link%d", p)
			srcs = append(srcs, rt.actors[fmt.Sprintf("prod%d", p)].endpoints[ch])
			sinks = append(sinks, rt.actors["consumer"].endpoints[ch])
		}
		return srcs, sinks
	}
	payload := make([]byte, 64)
	fill := func(b *testing.B, srcs []*Endpoint) {
		for _, src := range srcs {
			for j := 0; j < burst; j++ {
				if err := src.Send(payload); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("single", func(b *testing.B) {
		srcs, sinks := build(b)
		buf := make([]byte, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i += producers * burst {
			b.StopTimer()
			fill(b, srcs)
			b.StartTimer()
			for _, sink := range sinks {
				for {
					if _, ok, err := sink.Recv(buf); !ok || err != nil {
						break
					}
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		srcs, sinks := build(b)
		bufs, lens := BatchBufs(burst, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i += producers * burst {
			b.StopTimer()
			fill(b, srcs)
			b.StartTimer()
			for _, sink := range sinks {
				if got, err := sink.RecvBatch(bufs, lens); err != nil || got != burst {
					b.Fatalf("RecvBatch = %d, %v", got, err)
				}
			}
		}
	})
}
