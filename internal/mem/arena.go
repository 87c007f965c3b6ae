// Package mem provides the EActors memory substrate: preallocated node
// arenas, LIFO pools and FIFO mboxes (Section 3.3 of the paper).
//
// A node is a fixed-size message buffer with a small header. Pools hand
// out free nodes (LIFO, like the paper's stack-based pools); mboxes link
// in-flight nodes between eactors (FIFO). Both structures are lock-free,
// multi-producer/multi-consumer, and never allocate on the message path —
// the paper's replacement for SGX SDK synchronisation, which Figure 1
// shows to be catastrophically slow inside enclaves. Where the paper uses
// Hardware Lock Elision, this implementation uses CAS loops: a tagged
// Treiber stack for pools (ABA-safe via a 32-bit version counter) and a
// bounded Vyukov ring for mboxes.
package mem

import (
	"fmt"
	"sync/atomic"
)

// Node is a preallocated message buffer. While a node is held by exactly
// one owner (popped from a pool or dequeued from an mbox), its payload
// may be read and written freely; handing it to a pool or mbox transfers
// ownership.
type Node struct {
	index uint32        // position in the arena, used by pool freelists
	next  atomic.Uint32 // freelist link: index+1 encoding, 0 = nil
	size  int           // used payload length
	buf   []byte        // fixed-capacity payload backing

	// Reserved trace header: set by a traced sender before enqueue, read
	// by the receiver after dequeue. Plain fields — the mbox sequence
	// atomics order the hand-off (same happens-before argument as size),
	// and traceID zero means untraced.
	traceID   uint64
	traceSpan uint32
	traceEnq  int64 // UnixNano enqueue timestamp for dwell spans
}

// SetTrace stamps the node's trace header: the owning trace, the
// sender's span (the receiver's parent) and the enqueue timestamp.
func (n *Node) SetTrace(traceID uint64, span uint32, enqNS int64) {
	n.traceID = traceID
	n.traceSpan = span
	n.traceEnq = enqNS
}

// Trace reads the node's trace header; traceID zero means untraced.
func (n *Node) Trace() (traceID uint64, span uint32, enqNS int64) {
	return n.traceID, n.traceSpan, n.traceEnq
}

// ClearTrace marks the node untraced. Only the trace ID is cleared —
// zero is the whole "untraced" contract — keeping the armed-but-
// unsampled send path to a single store.
func (n *Node) ClearTrace() { n.traceID = 0 }

// Len returns the used payload length.
func (n *Node) Len() int { return n.size }

// Payload returns the used portion of the node's buffer.
func (n *Node) Payload() []byte { return n.buf[:n.size] }

// Buf returns the full-capacity buffer; pair with SetLen after writing
// into it directly.
func (n *Node) Buf() []byte { return n.buf }

// SetLen sets the used payload length after a direct Buf write.
func (n *Node) SetLen(size int) error {
	if size < 0 || size > len(n.buf) {
		return fmt.Errorf("mem: SetLen(%d) outside [0,%d]", size, len(n.buf))
	}
	n.size = size
	return nil
}

// Arena is a set of preallocated nodes with a common payload capacity.
// The node payloads share one backing allocation, mirroring the paper's
// avoidance of dynamic memory allocation inside enclaves (EPC is scarce).
type Arena struct {
	nodes       []Node
	payloadSize int
}

// NewArena preallocates count nodes of payloadSize bytes each.
func NewArena(count, payloadSize int) (*Arena, error) {
	if count <= 0 {
		return nil, fmt.Errorf("mem: NewArena count %d must be positive", count)
	}
	if payloadSize <= 0 {
		return nil, fmt.Errorf("mem: NewArena payload size %d must be positive", payloadSize)
	}
	a := &Arena{
		nodes:       make([]Node, count),
		payloadSize: payloadSize,
	}
	backing := make([]byte, count*payloadSize)
	for i := range a.nodes {
		a.nodes[i].index = uint32(i)
		a.nodes[i].buf = backing[i*payloadSize : (i+1)*payloadSize : (i+1)*payloadSize]
	}
	return a, nil
}

// PayloadSize returns the per-node payload capacity.
func (a *Arena) PayloadSize() int { return a.payloadSize }
