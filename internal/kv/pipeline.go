package kv

import (
	"fmt"
	"net"
	"time"

	"github.com/eactors/eactors-go/internal/transport"
)

// PipelineOptions configures a pipelined client.
type PipelineOptions struct {
	// Depth caps concurrent in-flight requests (default 64 — half the
	// server's default replay window, so resends always dedup).
	Depth int
	// Timeout bounds each call (default 5s).
	Timeout time.Duration
	// RecvWindow is the client's receive-buffer advertisement
	// (informational in v1; default transport.DefaultWindow).
	RecvWindow uint32
}

// PipelinedClient is the KV client: many requests ride one connection
// concurrently, responses return out of order correlated by opaque, and
// the transport session enforces the server's flow-control window and
// at-least-once resends. At Depth 1 it is a synchronous client. Safe
// for concurrent use by any number of goroutines.
//
// Request.ID is unused (correlation is the frame opaque) and always sent
// as zero.
type PipelinedClient struct {
	sess *transport.Session
}

// Pending is one in-flight pipelined operation; Wait blocks for its
// result. Issue deep, Wait in any order — that is the pipelining. A
// Pending is its transport call (the session recycles calls, so issuing
// allocates nothing): Wait collects it once, and it must not be used
// after.
type Pending transport.Call

// DialPipelined connects and performs the framed handshake. A peer that
// does not speak the framed transport (a pre-transport KV server drops
// the HELLO) yields transport.ErrLegacyPeer.
func DialPipelined(addr string, opts PipelineOptions) (*PipelinedClient, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	sess, err := transport.Connect(conn, transport.SessionOptions{
		Features:         transport.FeatureKV,
		RecvWindow:       opts.RecvWindow,
		Depth:            opts.Depth,
		HandshakeTimeout: timeout,
		CallTimeout:      timeout,
	})
	if err != nil {
		return nil, err // Connect closed conn
	}
	if sess.PeerFeatures()&transport.FeatureKV == 0 {
		_ = sess.Close()
		return nil, fmt.Errorf("kv: peer did not grant the KV feature")
	}
	return &PipelinedClient{sess: sess}, nil
}

// Close tears the session down; in-flight calls error.
func (c *PipelinedClient) Close() error { return c.sess.Close() }

// Stats snapshots the underlying session counters.
func (c *PipelinedClient) Stats() transport.SessionStats { return c.sess.Stats() }

// issue puts one request in flight, encoding it straight into the
// session's frame buffer.
func (c *PipelinedClient) issue(req Request) (*Pending, error) {
	hdr, err := req.header()
	if err != nil {
		return nil, err
	}
	call, err := c.sess.IssueParts(transport.TRequest, hdr[:], req.Key, req.Val)
	if err != nil {
		return nil, err
	}
	return (*Pending)(call), nil
}

// IssueGet puts a GET in flight without waiting.
func (c *PipelinedClient) IssueGet(key []byte) (*Pending, error) {
	return c.issue(Request{Op: OpGet, Key: key})
}

// IssueSet puts a SET in flight without waiting.
func (c *PipelinedClient) IssueSet(key, val []byte) (*Pending, error) {
	return c.issue(Request{Op: OpSet, Key: key, Val: val})
}

// IssueDel puts a DEL in flight without waiting.
func (c *PipelinedClient) IssueDel(key []byte) (*Pending, error) {
	return c.issue(Request{Op: OpDel, Key: key})
}

// Wait blocks until the operation's response arrives (with the
// session's at-least-once resends underneath) and decodes it. The
// Response's Val aliases the session reader's private copy of the
// reply, so it belongs to the caller; nothing reuses it.
func (p *Pending) Wait() (Response, error) {
	f, err := (*transport.Call)(p).Wait()
	if err != nil {
		return Response{}, err
	}
	resp, _, err := ParseResponse(f.Payload)
	if err != nil {
		return Response{}, fmt.Errorf("kv: bad framed response: %w", err)
	}
	return resp, nil
}

// Get looks key up; ok is false when the key is absent. val is the
// caller's (see Pending.Wait).
func (c *PipelinedClient) Get(key []byte) (val []byte, ok bool, err error) {
	p, err := c.IssueGet(key)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.Wait()
	if err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusValue:
		return resp.Val, true, nil
	case StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("kv: server error: %s", resp.Val)
	}
}

// Set stores key → val.
func (c *PipelinedClient) Set(key, val []byte) error {
	p, err := c.IssueSet(key, val)
	if err != nil {
		return err
	}
	resp, err := p.Wait()
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("kv: server error: %s", resp.Val)
	}
	return nil
}

// Del removes key; found reports whether it existed.
func (c *PipelinedClient) Del(key []byte) (found bool, err error) {
	p, err := c.IssueDel(key)
	if err != nil {
		return false, err
	}
	resp, err := p.Wait()
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("kv: server error: %s", resp.Val)
	}
}
