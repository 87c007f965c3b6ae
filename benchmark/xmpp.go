package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/client"
)

const (
	xmppSender   = "bench-send"
	xmppReceiver = "bench-recv"
	// xmppBodyBytes is the paper's one-to-one message size (§6.4.1).
	xmppBodyBytes = 150
	xmppReplyWait = 5 * time.Second
)

// xmppInstance is the paper's EA/3 deployment — one trusted XMPP shard —
// with one sender and one echoing receiver connection. One operation is
// a send and its echo: two traversals of the server.
type xmppInstance struct {
	srv      *xmpp.Server
	send     *client.Client
	recv     *client.Client
	bodyTail string
}

func startXMPP(e env) (instance, error) {
	srv, err := xmpp.Start(xmpp.Options{
		Shards:           1,
		Trusted:          true,
		Trace:            e.traced,
		Profile:          e.traced,
		Telemetry:        e.traced,
		TraceSampleEvery: sampleEvery(e),
	})
	if err != nil {
		return nil, err
	}
	in := &xmppInstance{srv: srv}
	// The receiver connects first so the sender never addresses an
	// offline user.
	if in.recv, err = client.Dial(srv.Addr(), xmppReceiver, xmppReplyWait); err == nil {
		in.send, err = client.Dial(srv.Addr(), xmppSender, xmppReplyWait)
	}
	if err == nil {
		err = in.handshake()
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	// Sequence number first, then seed-chosen filler up to the paper's
	// body size.
	r := newRNG(e.seed, 0)
	tail := make([]byte, xmppBodyBytes-16)
	for i := range tail {
		tail[i] = 'a' + byte(r.next()%26)
	}
	in.bodyTail = string(tail)
	return in, nil
}

// handshake completes set-up: authentication returns before the
// connector has handed the session to its shard, and a message to a user
// the shard does not know yet is dropped. Each direction is retried
// until it arrives, then leftovers of the retries are drained.
func (in *xmppInstance) handshake() error {
	reach := func(from, to *client.Client) error {
		for try := 0; try < 100; try++ {
			if err := from.SendMessage(to.User(), "hello"); err != nil {
				return err
			}
			if _, err := to.ReadMessage(50 * time.Millisecond); err == nil {
				return nil
			}
		}
		return fmt.Errorf("xmpp: %s never reached %s", from.User(), to.User())
	}
	if err := reach(in.send, in.recv); err != nil {
		return err
	}
	if err := reach(in.recv, in.send); err != nil {
		return err
	}
	for _, c := range []*client.Client{in.send, in.recv} {
		for {
			if _, err := c.ReadMessage(20 * time.Millisecond); err != nil {
				break
			}
		}
	}
	return nil
}

func (in *xmppInstance) clients() int { return 2 }

func (in *xmppInstance) layers() layers {
	return layers{rt: in.srv.Runtime(), tracer: in.srv.Tracer(), profile: in.srv.CostProfile, xmpp: in.srv.Stats}
}

func (in *xmppInstance) drive(i int, stop *atomic.Bool, r *recorder) {
	if i == 1 {
		in.echo(stop, r)
		return
	}
	var seq uint64
	for !stop.Load() {
		seq++
		h := strconv.FormatUint(seq, 16)
		body := "0000000000000000"[len(h):] + h + in.bodyTail
		issued := time.Now()
		if err := in.send.SendMessage(xmppReceiver, body); err != nil {
			r.fail()
			return
		}
		msg, err := in.send.ReadMessage(xmppReplyWait)
		if err != nil || msg.From != xmppReceiver || msg.Body != body {
			r.fail()
			continue
		}
		r.done(time.Since(issued))
	}
}

// echo is the receiver: every message goes back to whoever sent it. It
// outlives the sender by one read timeout, so the last request of the
// window still gets its echo.
func (in *xmppInstance) echo(stop *atomic.Bool, r *recorder) {
	for {
		msg, err := in.recv.ReadMessage(200 * time.Millisecond)
		if err != nil {
			if stop.Load() {
				return
			}
			continue
		}
		if msg.From != xmppSender || in.recv.SendMessage(msg.From, msg.Body) != nil {
			r.fail()
		}
	}
}

// verify has nothing left to check: every echo was compared when it
// arrived.
func (in *xmppInstance) verify() (attempted, failed uint64) { return 0, 0 }

func (in *xmppInstance) stop() {
	if in.send != nil {
		_ = in.send.Close()
	}
	if in.recv != nil {
		_ = in.recv.Close()
	}
	in.srv.Stop()
}
