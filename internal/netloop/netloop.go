// Package netloop is an event-driven readiness core for the networking
// eactors: instead of parking one pump goroutine per connection in
// conn.Read, idle connections are multiplexed by a small set of pollers
// (epoll on Linux, a netpoller-parking waiter elsewhere) and handed to a
// bounded dispatcher pool only when bytes are actually readable. The
// goroutine count is O(pollers + dispatchers), not O(connections) —
// the prerequisite for the ROADMAP's 100k-connection fan-in target.
//
// The protocol is deliberately tiny: a registration owns a
// syscall.RawConn and a Handler. When the fd turns readable, exactly one
// dispatcher invokes the handler (one-shot arming serializes dispatch
// per registration), and the handler's return value decides what happens
// next:
//
//   - Rearm: wait for the next readiness edge (level-triggered one-shot,
//     so leftover bytes refire immediately after re-arming);
//   - Retry: the consumer side is full — re-dispatch after a short
//     backoff without touching the poller (backpressure, not loss);
//   - Detach: the connection is finished — unregister it.
//
// Handlers perform their own non-blocking reads (see RawRead), so the
// loop never allocates or copies payload bytes itself.
package netloop

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config sizes a readiness loop. The zero value (Enabled false) means
// "use the legacy goroutine-per-connection pumps".
type Config struct {
	// Enabled turns the readiness loop on.
	Enabled bool
	// Pollers is the number of poller goroutines (epoll instances on
	// Linux); registrations are spread round-robin. Default 1.
	Pollers int
	// Dispatchers is the number of goroutines servicing readiness
	// events. Default 4.
	Dispatchers int
	// QueueCap bounds the dispatch queue between pollers and
	// dispatchers. A full queue applies backpressure to event intake
	// (counted in Stats.Sheds) — events are never dropped, the poller
	// just stops pulling new ones until a dispatcher frees a slot.
	// Default 1024.
	QueueCap int
}

func (c Config) withDefaults() Config {
	if c.Pollers <= 0 {
		c.Pollers = 1
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// Action is a handler's verdict on what the loop should do with the
// registration next.
type Action int

const (
	// Rearm re-arms the registration in the poller: dispatch again on
	// the next readiness edge.
	Rearm Action = iota
	// Retry re-dispatches the handler after a short backoff without
	// consulting the poller — the fd may still be readable but the
	// handler's consumer is full (backpressure).
	Retry
	// Detach unregisters the connection (EOF, error, or local close).
	Detach
)

// Handler is invoked by a dispatcher when the registered fd is
// readable. At most one invocation per registration is in flight at any
// time.
type Handler func() Action

// retryDelay is the Retry re-dispatch backoff. Long enough that a
// stalled consumer is not hammered, short enough that draining it
// resumes promptly.
const retryDelay = time.Millisecond

// ErrClosed reports an operation on a closed loop or registration.
var ErrClosed = errors.New("netloop: closed")

// Reg is one registered connection.
type Reg struct {
	token   uint32
	rc      syscall.RawConn
	handler Handler
	loop    *Loop
	poller  poller
	dead    atomic.Bool
}

// Close unregisters the connection. Idempotent; safe to call while a
// dispatch is in flight (the handler's verdict on a dead registration
// is ignored).
func (r *Reg) Close() {
	if r.dead.CompareAndSwap(false, true) {
		r.loop.unregister(r)
	}
}

// Loop is a running readiness loop: pollers feeding a bounded dispatch
// queue drained by a dispatcher pool.
type Loop struct {
	cfg     Config
	pollers []poller

	mu     sync.Mutex
	regs   map[uint32]*Reg
	next   uint32
	closed bool

	dispatchCh chan *Reg
	quit       chan struct{}
	wg         sync.WaitGroup

	readyEvents atomic.Uint64
	dispatches  atomic.Uint64
	retries     atomic.Uint64
	sheds       atomic.Uint64
}

// Stats is a point-in-time snapshot of the loop counters.
type Stats struct {
	// ReadyEvents counts readiness events delivered by the pollers.
	ReadyEvents uint64
	// Dispatches counts handler invocations.
	Dispatches uint64
	// Retries counts backpressure re-dispatches (handler returned Retry).
	Retries uint64
	// Sheds counts dispatch-queue-full events: the poller had to block
	// handing an event over (intake backpressure, not loss).
	Sheds uint64
	// Registered is the number of live registrations.
	Registered int
	// QueueDepth is the instantaneous dispatch queue occupancy.
	QueueDepth int
}

// New starts a readiness loop. On platforms without poller support it
// returns an error; callers fall back to per-connection pumps.
func New(cfg Config) (*Loop, error) {
	cfg = cfg.withDefaults()
	l := &Loop{
		cfg:        cfg,
		regs:       make(map[uint32]*Reg),
		dispatchCh: make(chan *Reg, cfg.QueueCap),
		quit:       make(chan struct{}),
	}
	for i := 0; i < cfg.Pollers; i++ {
		p, err := newPoller(l)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("netloop: poller %d: %w", i, err)
		}
		l.pollers = append(l.pollers, p)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			p.run()
		}()
	}
	for i := 0; i < cfg.Dispatchers; i++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.dispatch()
		}()
	}
	return l, nil
}

// Register adds a connection to the loop. The handler fires as soon as
// the fd is readable (immediately, if bytes are already pending).
func (l *Loop) Register(rc syscall.RawConn, h Handler) (*Reg, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.next++
	if l.next == 0 { // token 0 is the pollers' wake sentinel
		l.next = 1
	}
	r := &Reg{token: l.next, rc: rc, handler: h, loop: l}
	r.poller = l.pollers[int(r.token)%len(l.pollers)]
	l.regs[r.token] = r
	l.mu.Unlock()
	if err := r.poller.add(r); err != nil {
		l.mu.Lock()
		delete(l.regs, r.token)
		l.mu.Unlock()
		return nil, err
	}
	return r, nil
}

// lookup resolves a token to its live registration; stale events (the
// fd was unregistered, possibly reused) resolve to nil and are ignored.
func (l *Loop) lookup(token uint32) *Reg {
	l.mu.Lock()
	r := l.regs[token]
	l.mu.Unlock()
	return r
}

func (l *Loop) unregister(r *Reg) {
	r.dead.Store(true)
	l.mu.Lock()
	if l.regs[r.token] == r {
		delete(l.regs, r.token)
	}
	l.mu.Unlock()
	r.poller.del(r)
}

// deliver hands a readiness event to the dispatcher pool. Called from
// poller goroutines; a full queue blocks intake (counted as a shed)
// rather than dropping the event.
func (l *Loop) deliver(token uint32) {
	r := l.lookup(token)
	if r == nil || r.dead.Load() {
		return
	}
	l.readyEvents.Add(1)
	l.enqueue(r, true)
}

func (l *Loop) enqueue(r *Reg, countShed bool) {
	select {
	case l.dispatchCh <- r:
		return
	default:
	}
	if countShed {
		l.sheds.Add(1)
	}
	select {
	case l.dispatchCh <- r:
	case <-l.quit:
	}
}

// dispatch is one dispatcher-pool goroutine: invoke handlers, act on
// their verdicts.
func (l *Loop) dispatch() {
	for {
		select {
		case r := <-l.dispatchCh:
			if r.dead.Load() {
				continue
			}
			l.dispatches.Add(1)
			switch r.handler() {
			case Rearm:
				if r.dead.Load() {
					continue
				}
				if err := r.poller.arm(r); err != nil {
					r.Close()
				}
			case Retry:
				l.retries.Add(1)
				reg := r
				time.AfterFunc(retryDelay, func() {
					if !reg.dead.Load() {
						reg.loop.enqueue(reg, false)
					}
				})
			case Detach:
				r.Close()
			}
		case <-l.quit:
			return
		}
	}
}

// Stats snapshots the loop counters.
func (l *Loop) Stats() Stats {
	l.mu.Lock()
	registered := len(l.regs)
	l.mu.Unlock()
	return Stats{
		ReadyEvents: l.readyEvents.Load(),
		Dispatches:  l.dispatches.Load(),
		Retries:     l.retries.Load(),
		Sheds:       l.sheds.Load(),
		Registered:  registered,
		QueueDepth:  len(l.dispatchCh),
	}
}

// Close stops the pollers and dispatchers and drops every registration.
// Connections themselves are not closed — their owner does that.
func (l *Loop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	regs := make([]*Reg, 0, len(l.regs))
	for _, r := range l.regs {
		regs = append(regs, r)
	}
	l.regs = make(map[uint32]*Reg)
	l.mu.Unlock()
	for _, r := range regs {
		r.dead.Store(true)
	}
	close(l.quit)
	for _, p := range l.pollers {
		p.close()
	}
	l.wg.Wait()
}
