package mem

import (
	"fmt"
	"sync/atomic"
)

// Mbox is a bounded, lock-free, multi-producer/multi-consumer FIFO of
// node references (the paper's mbox abstraction, Section 3.3). It is a
// Vyukov ring: every slot carries a sequence number that encodes whether
// it is free for the next enqueue or holds a value for the next dequeue,
// so producers and consumers synchronise per slot without locks.
//
// An mbox never allocates: nodes flow from a pool, through mboxes, back
// to the pool.
type Mbox struct {
	mask  uint64
	slots []mboxSlot

	_      [48]byte // keep the hot counters on separate cache lines
	enqPos atomic.Uint64
	_      [56]byte
	deqPos atomic.Uint64
}

type mboxSlot struct {
	seq  atomic.Uint64
	node *Node
}

// NewMbox creates an mbox with the given capacity, which must be a power
// of two and at least 2.
func NewMbox(capacity int) (*Mbox, error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("mem: mbox capacity %d must be a power of two >= 2", capacity)
	}
	m := &Mbox{
		mask:  uint64(capacity - 1),
		slots: make([]mboxSlot, capacity),
	}
	for i := range m.slots {
		m.slots[i].seq.Store(uint64(i))
	}
	return m, nil
}

// Cap returns the mbox capacity.
func (m *Mbox) Cap() int { return len(m.slots) }

// Enqueue appends a node; it returns false when the mbox is full.
func (m *Mbox) Enqueue(node *Node) bool {
	if node == nil {
		return false
	}
	pos := m.enqPos.Load()
	for {
		slot := &m.slots[pos&m.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if m.enqPos.CompareAndSwap(pos, pos+1) {
				slot.node = node
				slot.seq.Store(pos + 1)
				return true
			}
			pos = m.enqPos.Load()
		case seq < pos:
			return false // ring is full
		default:
			pos = m.enqPos.Load()
		}
	}
}

// Dequeue removes the oldest node; ok is false when the mbox is empty.
func (m *Mbox) Dequeue() (node *Node, ok bool) {
	pos := m.deqPos.Load()
	for {
		slot := &m.slots[pos&m.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1:
			if m.deqPos.CompareAndSwap(pos, pos+1) {
				node = slot.node
				slot.node = nil
				slot.seq.Store(pos + m.mask + 1)
				return node, true
			}
			pos = m.deqPos.Load()
		case seq <= pos:
			return nil, false // ring is empty
		default:
			pos = m.deqPos.Load()
		}
	}
}

// EnqueueBatch appends a run of nodes with a single CAS on the enqueue
// cursor, preserving FIFO order: nodes[0] is dequeued first. It returns
// how many nodes were enqueued — fewer than len(nodes) when the ring
// has less free space. All nodes must be non-nil; on a partial enqueue
// the caller keeps ownership of nodes[n:].
//
// The reservation is safe because slot availability is stable: a slot
// whose sequence equals its enqueue round can only be claimed through
// the enqueue-cursor CAS (which we win for the whole run), and
// consumers only ever move slots *towards* availability.
func (m *Mbox) EnqueueBatch(nodes []*Node) int {
	if len(nodes) == 0 {
		return 0
	}
	pos := m.enqPos.Load()
	for {
		slot := &m.slots[pos&m.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			// Count the run of free slots starting at pos. The scan
			// self-limits at capacity: after len(slots) steps it re-reads
			// the first slot, whose sequence no longer matches.
			n := 1
			for n < len(nodes) {
				next := m.slots[(pos+uint64(n))&m.mask].seq.Load()
				if next != pos+uint64(n) {
					break
				}
				n++
			}
			if !m.enqPos.CompareAndSwap(pos, pos+uint64(n)) {
				pos = m.enqPos.Load()
				continue
			}
			for i := 0; i < n; i++ {
				s := &m.slots[(pos+uint64(i))&m.mask]
				s.node = nodes[i]
				s.seq.Store(pos + uint64(i) + 1)
			}
			return n
		case seq < pos:
			return 0 // ring is full
		default:
			pos = m.enqPos.Load()
		}
	}
}

// DequeueBatch removes up to len(out) of the oldest nodes with a single
// CAS on the dequeue cursor, filling out in FIFO order and returning the
// count. A racing producer that has reserved but not yet published a
// slot truncates the run, so a batch never blocks on an in-flight
// enqueue.
func (m *Mbox) DequeueBatch(out []*Node) int {
	if len(out) == 0 {
		return 0
	}
	pos := m.deqPos.Load()
	for {
		slot := &m.slots[pos&m.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1:
			n := 1
			for n < len(out) {
				next := m.slots[(pos+uint64(n))&m.mask].seq.Load()
				if next != pos+uint64(n)+1 {
					break
				}
				n++
			}
			if !m.deqPos.CompareAndSwap(pos, pos+uint64(n)) {
				pos = m.deqPos.Load()
				continue
			}
			for i := 0; i < n; i++ {
				s := &m.slots[(pos+uint64(i))&m.mask]
				out[i] = s.node
				s.node = nil
				s.seq.Store(pos + uint64(i) + m.mask + 1)
			}
			return n
		case seq <= pos:
			return 0 // ring is empty
		default:
			pos = m.deqPos.Load()
		}
	}
}

// Len returns the approximate number of queued nodes.
func (m *Mbox) Len() int {
	n := int64(m.enqPos.Load()) - int64(m.deqPos.Load())
	if n < 0 {
		n = 0
	}
	if n > int64(len(m.slots)) {
		n = int64(len(m.slots))
	}
	return int(n)
}
