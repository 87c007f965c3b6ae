package load

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp/client"
)

const (
	// xmppDialTimeout bounds each client's connect and login.
	xmppDialTimeout = 30 * time.Second
	// replyTimeout bounds a sender's wait for its echo or the monitor's
	// wait for a group message; a miss counts as an error and the
	// client moves on.
	replyTimeout = 2 * time.Second
	// pollTimeout is how often an echoing or draining member rechecks
	// Stopped while no message arrives.
	pollTimeout = 500 * time.Millisecond
)

// O2O configures the paper's one-to-one messaging run (§6.4.1).
type O2O struct {
	Addr string
	// Clients splits into senders and echoing receivers; an odd count
	// rounds up.
	Clients int
	// Body is every message's body.
	Body            string
	Warmup, Measure time.Duration
}

// RunO2O connects the receivers, then the senders, and drives them:
// every receiver echoes each message back to its sender, and every
// sender runs a closed loop — pick a random receiver ("a sender client
// randomly selects a receiver client"), send, wait for the echo. One
// echoed message is one operation.
func RunO2O(cfg O2O) (Stats, error) {
	pairs := max((cfg.Clients+1)/2, 1)
	var open []*client.Client
	defer func() { closeClients(open) }()
	// Receivers first, so senders never target an offline user.
	recv, err := dialUsers(cfg.Addr, "load-recv-%d", pairs, &open)
	if err != nil {
		return Stats{}, err
	}
	send, err := dialUsers(cfg.Addr, "load-send-%d", pairs, &open)
	if err != nil {
		return Stats{}, err
	}
	return Measure(2*pairs, cfg.Warmup, cfg.Measure, func(id int, w *Window) {
		if id < pairs {
			c := recv[id]
			for !w.Stopped() {
				if msg, err := c.ReadMessage(pollTimeout); err == nil {
					_ = c.SendMessage(msg.From, msg.Body) //sendcheck:ok — a lost echo is the sender's reply timeout
				}
			}
			return
		}
		c := send[id-pairs]
		rng := rand.New(rand.NewSource(int64(id)))
		for !w.Stopped() {
			start := time.Now()
			if err := c.SendMessage(fmt.Sprintf("load-recv-%d", rng.Intn(pairs)), cfg.Body); err != nil {
				w.Fail()
				return
			}
			if _, err := c.ReadMessage(replyTimeout); err != nil {
				if !w.Stopped() { // after the stop, receivers no longer echo
					w.Fail()
				}
				continue
			}
			w.Done(start)
		}
	}), nil
}

// Group configures the paper's group-chat run (§6.4.2).
type Group struct {
	Addr string
	Room string
	// Members joins this many clients to Room (at least 2).
	Members         int
	Body            string
	Warmup, Measure time.Duration
}

// RunGroup joins every member to the room; member 0 sends the next
// message as soon as member 1 (the monitor) received the previous one —
// the paper's self-clocked O2M loop — and the rest drain. Every
// member's receptions count, and a group message is complete when all
// N−1 copies are delivered, so Rate is deliveries/(N−1) per second:
// averaging over all members keeps it independent of fan-out order.
// Latency is send to the monitor's receipt.
func RunGroup(cfg Group) (Stats, error) {
	n := max(cfg.Members, 2)
	var open []*client.Client
	defer func() { closeClients(open) }()
	members, err := dialUsers(cfg.Addr, "load-member-%d", n, &open)
	if err != nil {
		return Stats{}, err
	}
	for _, c := range members {
		if err := c.JoinRoom(cfg.Room); err != nil {
			return Stats{}, fmt.Errorf("load: join %s: %w", cfg.Room, err)
		}
	}
	// Joins are fire-and-forget; give the service a moment to register
	// the room before clocking it.
	time.Sleep(300 * time.Millisecond)

	st := Measure(n-1, cfg.Warmup, cfg.Measure, func(id int, w *Window) {
		if id > 0 {
			c := members[id+1]
			for !w.Stopped() {
				if _, err := c.ReadMessage(pollTimeout); err == nil {
					w.Count()
				}
			}
			return
		}
		sender, monitor := members[0], members[1]
		for !w.Stopped() {
			start := time.Now()
			if err := sender.SendGroupMessage(cfg.Room, cfg.Body); err != nil {
				w.Fail()
				return
			}
			if _, err := monitor.ReadMessage(replyTimeout); err != nil {
				w.Fail()
				continue
			}
			w.Done(start)
		}
	})
	st.Fanout = n - 1
	return st, nil
}

// dialUsers logs in n users named fmt.Sprintf(format, i), appending
// each to *open so the caller's deferred close covers a partial failure.
func dialUsers(addr, format string, n int, open *[]*client.Client) ([]*client.Client, error) {
	users := make([]*client.Client, n)
	for i := range users {
		c, err := client.Dial(addr, fmt.Sprintf(format, i), xmppDialTimeout)
		if err != nil {
			return nil, fmt.Errorf("load: dial %s: %w", fmt.Sprintf(format, i), err)
		}
		users[i] = c
		*open = append(*open, c)
	}
	return users, nil
}

func closeClients(cs []*client.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}
