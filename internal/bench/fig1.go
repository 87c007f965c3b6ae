package bench

import (
	"runtime"
	"sync"
	"time"

	"github.com/eactors/eactors-go/internal/sgx"
)

// Fig1Config parameterises the Figure 1 reproduction: concurrent
// dequeuing of Elements from a mutex-protected stack, comparing a
// pthread-style futex mutex with the SGX SDK mutex (spin then
// exit-enclave-and-sleep). The paper uses 1,000,000 elements and 2-16
// consumer threads.
type Fig1Config struct {
	Elements int
	Threads  []int
	Costs    *sgx.CostModel
}

// DefaultFig1 returns the paper-scale configuration.
func DefaultFig1() Fig1Config {
	return Fig1Config{
		Elements: 1_000_000,
		Threads:  []int{2, 4, 6, 8, 10, 12, 14, 16},
		Costs:    sgx.DefaultCostModel(),
	}
}

// lockedStack is the shared mutex-protected stack both variants drain.
type lockedStack struct {
	items int
}

// pop removes one element. The Gosched inside the critical section is
// the single-core interleaving device: on the paper's 8-thread machine
// consumers contend because they run simultaneously on different cores;
// on a 1-CPU host the holder must be descheduled mid-hold for any
// contention to exist at all. It is applied identically to both the
// pthread and the SGX variant, so it shifts both curves without
// distorting their ratio — which is what Figure 1 plots. With consumers
// no more than Ps the holder is never descheduled, the SDK mutex's spin
// always wins, and neither series contends; Fig1MutexStack therefore
// runs on one P whatever the host's core count.
func (s *lockedStack) pop() bool {
	if s.items == 0 {
		return false
	}
	s.items--
	runtime.Gosched()
	return true
}

// Fig1MutexStack runs both series and returns time-to-drain rows.
func Fig1MutexStack(cfg Fig1Config) ([]Row, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rows []Row
	for _, threads := range cfg.Threads {
		// pthread_mutex: plain futex mutex, untrusted contexts.
		pthread := drainPthread(cfg.Elements, threads)
		rows = append(rows, Row{
			Figure: "fig1", Series: "pthread_mutex",
			XLabel: "threads", X: float64(threads),
			Value: pthread.Seconds(), Unit: "s",
		})

		sgxTime, err := drainSGX(cfg.Elements, threads, cfg.Costs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Figure: "fig1", Series: "sgx_mutex",
			XLabel: "threads", X: float64(threads),
			Value: sgxTime.Seconds(), Unit: "s",
		})
	}
	return rows, nil
}

func drainPthread(elements, threads int) time.Duration {
	stack := &lockedStack{items: elements}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				ok := stack.pop()
				mu.Unlock()
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func drainSGX(elements, threads int, costs *sgx.CostModel) (time.Duration, error) {
	platform := sgx.NewPlatform(sgx.WithCostModel(costs))
	enclave, err := platform.CreateEnclave("fig1-stack", 64*1024)
	if err != nil {
		return 0, err
	}
	defer platform.DestroyEnclave(enclave)

	stack := &lockedStack{items: elements}
	mu := sgx.NewMutex(platform)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := sgx.NewContext(platform)
			if err := ctx.Enter(enclave); err != nil {
				return
			}
			defer ctx.Exit()
			for {
				mu.Lock(ctx)
				ok := stack.pop()
				mu.Unlock(ctx)
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}
