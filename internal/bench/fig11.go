package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/sgx"
)

// Fig11Config parameterises the inter-enclave ping-pong comparison
// (Figure 11): Native (SGX SDK OCall/ECall message passing), EA
// (EActors plaintext mboxes) and EA-ENC (encrypted channel), across
// message sizes. The paper runs 1,000,000 ping-pong pairs per point.
type Fig11Config struct {
	Pairs int
	Sizes []int
	Costs *sgx.CostModel
}

// DefaultFig11 returns the paper-scale configuration.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		Pairs: 1_000_000,
		Sizes: []int{16, 1 << 10, 8 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
		Costs: sgx.DefaultCostModel(),
	}
}

// Fig11PingPong measures all three variants, emitting execution-time
// rows (fig11a) and data-throughput rows (fig11b).
func Fig11PingPong(cfg Fig11Config) ([]Row, error) {
	var rows []Row
	for _, size := range cfg.Sizes {
		native, err := PingPongNative(cfg.Pairs, size, cfg.Costs)
		if err != nil {
			return nil, err
		}
		ea, err := PingPongEA(cfg.Pairs, size, cfg.Costs, false)
		if err != nil {
			return nil, err
		}
		eaEnc, err := PingPongEA(cfg.Pairs, size, cfg.Costs, true)
		if err != nil {
			return nil, err
		}
		for _, v := range []struct {
			series string
			d      time.Duration
		}{{"Native", native}, {"EA", ea}, {"EA-ENC", eaEnc}} {
			rows = append(rows,
				Row{Figure: "fig11a", Series: v.series, XLabel: "bytes", X: float64(size),
					Value: v.d.Seconds(), Unit: "s"},
				Row{Figure: "fig11b", Series: v.series, XLabel: "bytes", X: float64(size),
					Value: throughputMiB(cfg.Pairs, size, v.d), Unit: "MiB/s"},
			)
		}
	}
	return rows, nil
}

// throughputMiB is the moved payload volume (two messages per pair)
// over the run time.
func throughputMiB(pairs, size int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	bytes := float64(pairs) * 2 * float64(size)
	return bytes / (1 << 20) / d.Seconds()
}

// PingPongNative is the SGX-SDK-style baseline (Figure 10a): PING and
// PONG live in different enclaves; every message leaves PING's enclave
// through an OCall (marshalled into an untrusted mbuf) and enters
// PONG's enclave through an ECall (marshalled again), and the reply
// pays the same on the way back.
func PingPongNative(pairs, size int, costs *sgx.CostModel) (time.Duration, error) {
	platform := sgx.NewPlatform(sgx.WithCostModel(costs))
	ping, err := platform.CreateEnclave("native-ping", 64*1024)
	if err != nil {
		return 0, err
	}
	defer platform.DestroyEnclave(ping)
	pong, err := platform.CreateEnclave("native-pong", 64*1024)
	if err != nil {
		return 0, err
	}
	defer platform.DestroyEnclave(pong)

	msg := make([]byte, size)
	reply := make([]byte, size)
	fill := randomPayload(size)
	ctx := sgx.NewContext(platform)

	start := time.Now()
	for i := 0; i < pairs; i++ {
		if err := ctx.Enter(ping); err != nil {
			return 0, err
		}
		copy(msg, fill) // PING fills the payload inside its enclave
		// OCall: the message is marshalled out of PING's enclave...
		err := ctx.OCall(msg, reply, func() {
			// ...and an ECall marshals it into PONG's enclave, whose
			// reply is marshalled back out.
			_ = ctx.ECall(pong, msg, reply, func() {
				copy(reply, msg) // PONG builds the reply
			})
		})
		if err != nil {
			return 0, err
		}
		ctx.Exit()
	}
	return time.Since(start), nil
}

// PingPongEA runs the EActors variant: two eactors in two enclaves,
// each on its own worker, exchanging messages over one channel —
// plaintext mboxes for EA, transparent encryption for EA-ENC.
func PingPongEA(pairs, size int, costs *sgx.CostModel, encrypted bool) (time.Duration, error) {
	platform := sgx.NewPlatform(sgx.WithCostModel(costs))
	fill := randomPayload(size)

	var done atomic.Bool
	var elapsed time.Duration
	start := time.Now()

	type pingState struct {
		sent  int
		recvd int
		buf   []byte
	}
	pingSt := &pingState{buf: make([]byte, size)}
	pongBuf := make([]byte, size)

	cfg := core.Config{
		Enclaves:    []core.EnclaveSpec{{Name: "ping"}, {Name: "pong"}},
		Workers:     []core.WorkerSpec{{}, {}},
		PoolNodes:   16,
		NodePayload: size + 64,
		Channels: []core.ChannelSpec{{
			Name: "pp", A: "ping", B: "pong", Plaintext: !encrypted, Capacity: 4,
		}},
		Actors: []core.Spec{
			{
				Name: "ping", Enclave: "ping", Worker: 0, State: pingSt,
				Body: func(self *core.Self) {
					st := self.State.(*pingState)
					ch := self.MustChannel("pp")
					if st.sent == st.recvd && st.sent < pairs {
						copy(st.buf, fill) // fill the payload (paper: pseudo-random data)
						if ch.Send(st.buf) == nil {
							st.sent++
							self.Progress()
						}
						return
					}
					n, ok, err := ch.Recv(st.buf)
					if err != nil || !ok || n != size {
						return
					}
					st.recvd++
					self.Progress()
					if st.recvd >= pairs && !done.Swap(true) {
						elapsed = time.Since(start)
						self.StopRuntime()
					}
				},
			},
			{
				Name: "pong", Enclave: "pong", Worker: 1,
				Body: func(self *core.Self) {
					ch := self.MustChannel("pp")
					n, ok, err := ch.Recv(pongBuf)
					if err != nil || !ok {
						return
					}
					_ = ch.Send(pongBuf[:n]) //sendcheck:ok
					self.Progress()
				},
			},
		},
	}
	rt, err := core.NewRuntime(platform, cfg)
	if err != nil {
		return 0, err
	}
	start = time.Now()
	if err := rt.Start(); err != nil {
		rt.Stop()
		return 0, err
	}
	waitDone := make(chan struct{})
	go func() {
		rt.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Minute):
		rt.Stop()
		return 0, fmt.Errorf("bench: fig11 EA run (size %d) timed out", size)
	}
	rt.Stop()
	return elapsed, nil
}

// randomPayload builds a deterministic pseudo-random buffer.
func randomPayload(size int) []byte {
	buf := make([]byte, size)
	x := uint32(0x9E3779B9)
	for i := range buf {
		x = x*1664525 + 1013904223
		buf[i] = byte(x >> 24)
	}
	return buf
}
