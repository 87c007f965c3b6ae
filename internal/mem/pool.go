package mem

import (
	"fmt"
	"sync/atomic"
)

// Pool is a lock-free LIFO stack of free nodes (the paper's pool
// abstraction, Section 3.3). It is multi-producer/multi-consumer and
// ABA-safe: the head word packs a 32-bit version tag with the top node's
// index, so a CAS cannot succeed across an interleaved pop/push cycle
// that reuses the same node.
type Pool struct {
	arena *Arena
	// head packs {tag:32, index+1:32}; index 0 means empty.
	head  atomic.Uint64
	count atomic.Int64
}

// NewPool builds a pool over the whole arena, with every node initially
// free.
func NewPool(arena *Arena) *Pool {
	p := &Pool{arena: arena}
	for i := len(arena.nodes) - 1; i >= 0; i-- {
		p.push(&arena.nodes[i])
	}
	return p
}

// Arena returns the backing arena.
func (p *Pool) Arena() *Arena { return p.arena }

// Get pops a free node, or returns nil when the pool is exhausted.
func (p *Pool) Get() *Node {
	for {
		head := p.head.Load()
		idx := uint32(head)
		if idx == 0 {
			return nil
		}
		node := &p.arena.nodes[idx-1]
		next := node.next.Load()
		tag := uint32(head>>32) + 1
		if p.head.CompareAndSwap(head, uint64(tag)<<32|uint64(next)) {
			p.count.Add(-1)
			node.size = 0
			return node
		}
	}
}

// GetBatch pops up to len(out) free nodes with a single CAS, filling
// out from the top of the stack. It returns the number popped (0 when
// the pool is empty). The freelist walk is validated by the tagged CAS:
// the tag changes on every push and pop, so the CAS only succeeds when
// the list was untouched since the head read and every link the walk
// followed was stable.
func (p *Pool) GetBatch(out []*Node) int {
	if len(out) == 0 {
		return 0
	}
	for {
		head := p.head.Load()
		idx := uint32(head)
		if idx == 0 {
			return 0
		}
		n := 0
		next := idx
		for n < len(out) && next != 0 {
			node := &p.arena.nodes[next-1]
			out[n] = node
			next = node.next.Load()
			n++
		}
		tag := uint32(head>>32) + 1
		if p.head.CompareAndSwap(head, uint64(tag)<<32|uint64(next)) {
			p.count.Add(int64(-n))
			for i := 0; i < n; i++ {
				out[i].size = 0
			}
			return n
		}
	}
}

// PutBatch returns a run of nodes to the pool with a single CAS: the
// nodes are linked amongst themselves first, then the whole chain is
// pushed at once. The caller must own every node and must not touch
// them afterwards. nodes[0] becomes the new top of the stack.
func (p *Pool) PutBatch(nodes []*Node) error {
	if len(nodes) == 0 {
		return nil
	}
	for _, node := range nodes {
		if node == nil {
			return fmt.Errorf("mem: PutBatch(nil node)")
		}
		if int(node.index) >= len(p.arena.nodes) || &p.arena.nodes[node.index] != node {
			return fmt.Errorf("mem: PutBatch of node %d from a different arena", node.index)
		}
	}
	for i := 0; i < len(nodes)-1; i++ {
		nodes[i].next.Store(nodes[i+1].index + 1)
	}
	first := uint64(nodes[0].index) + 1
	last := nodes[len(nodes)-1]
	for {
		head := p.head.Load()
		last.next.Store(uint32(head))
		tag := uint32(head>>32) + 1
		if p.head.CompareAndSwap(head, uint64(tag)<<32|first) {
			p.count.Add(int64(len(nodes)))
			return nil
		}
	}
}

// Put returns a node to the pool. The caller must own the node and must
// not touch it afterwards.
func (p *Pool) Put(node *Node) error {
	if node == nil {
		return fmt.Errorf("mem: Put(nil)")
	}
	if int(node.index) >= len(p.arena.nodes) || &p.arena.nodes[node.index] != node {
		return fmt.Errorf("mem: Put of node %d from a different arena", node.index)
	}
	p.push(node)
	return nil
}

func (p *Pool) push(node *Node) {
	encoded := uint64(node.index) + 1
	for {
		head := p.head.Load()
		node.next.Store(uint32(head))
		tag := uint32(head>>32) + 1
		if p.head.CompareAndSwap(head, uint64(tag)<<32|encoded) {
			p.count.Add(1)
			return
		}
	}
}

// Free returns the current number of free nodes (approximate under
// concurrency).
func (p *Pool) Free() int { return int(p.count.Load()) }
