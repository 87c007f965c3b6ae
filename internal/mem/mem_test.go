package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func newTestArena(t *testing.T, count, size int) *Arena {
	t.Helper()
	a, err := NewArena(count, size)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	return a
}

func TestArenaValidation(t *testing.T) {
	if _, err := NewArena(0, 64); err == nil {
		t.Fatal("zero-count arena accepted")
	}
	if _, err := NewArena(4, 0); err == nil {
		t.Fatal("zero-size arena accepted")
	}
	if _, err := NewArena(-1, -1); err == nil {
		t.Fatal("negative arena accepted")
	}
}

func TestArenaLayout(t *testing.T) {
	a := newTestArena(t, 8, 128)
	if a.Len() != 8 || a.PayloadSize() != 128 {
		t.Fatalf("arena geometry wrong: %d nodes × %d B", a.Len(), a.PayloadSize())
	}
	n, err := a.Node(3)
	if err != nil {
		t.Fatalf("Node(3): %v", err)
	}
	if n.Index() != 3 || len(n.Buf()) != 128 {
		t.Fatalf("node 3: index=%d cap=%d", n.Index(), len(n.Buf()))
	}
	if _, err := a.Node(8); err == nil {
		t.Fatal("out-of-range node index accepted")
	}
}

func TestNodeBuffersAreDisjoint(t *testing.T) {
	a := newTestArena(t, 4, 16)
	for i := 0; i < 4; i++ {
		n, _ := a.Node(uint32(i))
		for j := range n.Buf() {
			n.Buf()[j] = byte(i + 1)
		}
	}
	for i := 0; i < 4; i++ {
		n, _ := a.Node(uint32(i))
		for _, b := range n.Buf() {
			if b != byte(i+1) {
				t.Fatalf("node %d buffer overlaps another node", i)
			}
		}
	}
}

func TestNodePayload(t *testing.T) {
	a := newTestArena(t, 1, 32)
	n, _ := a.Node(0)
	if err := n.SetLen(copy(n.Buf(), "hello")); err != nil {
		t.Fatalf("SetLen: %v", err)
	}
	if n.Len() != 5 || string(n.Payload()) != "hello" {
		t.Fatalf("payload = %q (len %d)", n.Payload(), n.Len())
	}
	if err := n.SetLen(32); err != nil {
		t.Fatalf("SetLen(32): %v", err)
	}
	if err := n.SetLen(33); err == nil {
		t.Fatal("SetLen beyond capacity accepted")
	}
	if err := n.SetLen(-1); err == nil {
		t.Fatal("negative SetLen accepted")
	}
}

func TestPoolGetPut(t *testing.T) {
	a := newTestArena(t, 4, 16)
	p := NewPool(a)
	if p.Free() != 4 {
		t.Fatalf("Free = %d, want 4", p.Free())
	}
	seen := map[uint32]bool{}
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n := p.Get()
		if n == nil {
			t.Fatalf("Get #%d returned nil", i)
		}
		if seen[n.Index()] {
			t.Fatalf("node %d handed out twice", n.Index())
		}
		seen[n.Index()] = true
		nodes = append(nodes, n)
	}
	if p.Get() != nil {
		t.Fatal("exhausted pool returned a node")
	}
	for _, n := range nodes {
		if err := p.Put(n); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if p.Free() != 4 {
		t.Fatalf("Free after refill = %d, want 4", p.Free())
	}
}

func TestPoolLIFO(t *testing.T) {
	a := newTestArena(t, 4, 16)
	p := NewPool(a)
	n1 := p.Get()
	n2 := p.Get()
	if err := p.Put(n1); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(n2); err != nil {
		t.Fatal(err)
	}
	if got := p.Get(); got != n2 {
		t.Fatalf("pool is not LIFO: got node %d, want %d", got.Index(), n2.Index())
	}
}

func TestPoolGetResetsLen(t *testing.T) {
	a := newTestArena(t, 1, 16)
	p := NewPool(a)
	n := p.Get()
	if err := n.SetLen(copy(n.Buf(), "stale")); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(n); err != nil {
		t.Fatal(err)
	}
	n = p.Get()
	if n.Len() != 0 {
		t.Fatalf("recycled node has stale length %d", n.Len())
	}
}

func TestPoolPutForeignNode(t *testing.T) {
	a1 := newTestArena(t, 2, 16)
	a2 := newTestArena(t, 2, 16)
	p := NewPool(a1)
	foreign, _ := a2.Node(0)
	if err := p.Put(foreign); err == nil {
		t.Fatal("pool accepted a node from a different arena")
	}
	if err := p.Put(nil); err == nil {
		t.Fatal("pool accepted nil")
	}
}

func TestEmptyPool(t *testing.T) {
	a := newTestArena(t, 2, 16)
	p := &Pool{arena: a} // no free nodes
	if p.Get() != nil {
		t.Fatal("empty pool returned a node")
	}
	n, _ := a.Node(0)
	if err := p.Put(n); err != nil {
		t.Fatalf("Put into empty pool: %v", err)
	}
	if got := p.Get(); got != n {
		t.Fatal("did not get back the node put into the empty pool")
	}
}

func TestPoolConcurrentChurn(t *testing.T) {
	const (
		workers = 8
		rounds  = 5000
	)
	a := newTestArena(t, 64, 32)
	p := NewPool(a)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := p.Get()
				if n == nil {
					continue
				}
				// Stamp the buffer and verify exclusive ownership.
				buf := n.Buf()
				for j := range buf {
					buf[j] = id
				}
				for j := range buf {
					if buf[j] != id {
						t.Errorf("node %d corrupted while owned", n.Index())
						return
					}
				}
				if err := p.Put(n); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
	if p.Free() != 64 {
		t.Fatalf("Free after churn = %d, want 64 (leaked or duplicated nodes)", p.Free())
	}
}

func TestMboxValidation(t *testing.T) {
	for _, c := range []int{0, 1, 3, 100} {
		if _, err := NewMbox(c); err == nil {
			t.Fatalf("capacity %d accepted", c)
		}
	}
	if _, err := NewMbox(8); err != nil {
		t.Fatalf("capacity 8 rejected: %v", err)
	}
}

func TestMboxFIFO(t *testing.T) {
	a := newTestArena(t, 8, 16)
	m, _ := NewMbox(8)
	for i := 0; i < 8; i++ {
		n, _ := a.Node(uint32(i))
		if !m.Enqueue(n) {
			t.Fatalf("Enqueue #%d failed", i)
		}
	}
	for i := 0; i < 8; i++ {
		n, ok := m.Dequeue()
		if !ok {
			t.Fatalf("Dequeue #%d failed", i)
		}
		if n.Index() != uint32(i) {
			t.Fatalf("FIFO violated: got node %d at position %d", n.Index(), i)
		}
	}
	if _, ok := m.Dequeue(); ok {
		t.Fatal("empty mbox dequeued a node")
	}
}

func TestMboxFullAndEmpty(t *testing.T) {
	a := newTestArena(t, 3, 16)
	m, _ := NewMbox(2)
	n0, _ := a.Node(0)
	n1, _ := a.Node(1)
	n2, _ := a.Node(2)
	if !m.Enqueue(n0) || !m.Enqueue(n1) {
		t.Fatal("enqueue into non-full mbox failed")
	}
	if m.Enqueue(n2) {
		t.Fatal("enqueue into full mbox succeeded")
	}
	if m.Len() != 2 || m.Empty() {
		t.Fatalf("Len = %d, Empty = %v", m.Len(), m.Empty())
	}
	if m.Enqueue(nil) {
		t.Fatal("nil node enqueued")
	}
	got, ok := m.Dequeue()
	if !ok || got != n0 {
		t.Fatal("wrong head dequeued")
	}
	if !m.Enqueue(n2) {
		t.Fatal("enqueue after dequeue failed (ring not recycling)")
	}
}

func TestMboxWrapAround(t *testing.T) {
	a := newTestArena(t, 1, 16)
	m, _ := NewMbox(4)
	n, _ := a.Node(0)
	for i := 0; i < 100; i++ {
		if !m.Enqueue(n) {
			t.Fatalf("Enqueue at round %d failed", i)
		}
		got, ok := m.Dequeue()
		if !ok || got != n {
			t.Fatalf("Dequeue at round %d failed", i)
		}
	}
}

func TestMboxConcurrentMPMC(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
	)
	a := newTestArena(t, 256, 8)
	pool := NewPool(a)
	m, _ := NewMbox(64)

	var produced, consumed sync.WaitGroup
	var consumedCount sync.Map
	done := make(chan struct{})

	consumed.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func() {
			defer consumed.Done()
			for {
				n, ok := m.Dequeue()
				if !ok {
					select {
					case <-done:
						// Drain any stragglers before exiting.
						for {
							n, ok := m.Dequeue()
							if !ok {
								return
							}
							v, _ := consumedCount.LoadOrStore(n.Index(), new(sync.Mutex))
							_ = v
							_ = pool.Put(n)
						}
					default:
						runtime.Gosched()
						continue
					}
				}
				_ = pool.Put(n)
			}
		}()
	}

	produced.Add(producers)
	totalSent := make([]int, producers)
	for p := 0; p < producers; p++ {
		go func(idx int) {
			defer produced.Done()
			for i := 0; i < perProd; {
				n := pool.Get()
				if n == nil {
					runtime.Gosched()
					continue
				}
				if !m.Enqueue(n) {
					_ = pool.Put(n)
					runtime.Gosched()
					continue
				}
				i++
				totalSent[idx]++
			}
		}(p)
	}

	produced.Wait()
	close(done)
	consumed.Wait()

	if pool.Free() != 256 {
		t.Fatalf("pool Free = %d after MPMC churn, want 256", pool.Free())
	}
	for p, n := range totalSent {
		if n != perProd {
			t.Fatalf("producer %d sent %d, want %d", p, n, perProd)
		}
	}
}

func TestMboxQuickSequential(t *testing.T) {
	// Property: for any sequence of enqueue/dequeue operations, the mbox
	// behaves exactly like a bounded FIFO queue model.
	a := newTestArena(t, 64, 8)
	f := func(ops []bool) bool {
		m, err := NewMbox(16)
		if err != nil {
			return false
		}
		var model []uint32
		next := 0
		for _, enq := range ops {
			if enq {
				if next >= a.Len() {
					continue
				}
				n, _ := a.Node(uint32(next))
				ok := m.Enqueue(n)
				wantOK := len(model) < 16
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, n.Index())
					next++
				}
			} else {
				n, ok := m.Dequeue()
				wantOK := len(model) > 0
				if ok != wantOK {
					return false
				}
				if ok {
					if n.Index() != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolQuickNoDuplicates(t *testing.T) {
	// Property: a pool never hands out a node that is currently owned.
	f := func(ops []bool) bool {
		a, err := NewArena(8, 8)
		if err != nil {
			return false
		}
		p := NewPool(a)
		owned := map[uint32]*Node{}
		for _, get := range ops {
			if get {
				n := p.Get()
				if n == nil {
					if len(owned) != 8 {
						return false // pool claimed empty while nodes were free
					}
					continue
				}
				if _, dup := owned[n.Index()]; dup {
					return false
				}
				owned[n.Index()] = n
			} else {
				for idx, n := range owned {
					if p.Put(n) != nil {
						return false
					}
					delete(owned, idx)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadRoundTripQuick(t *testing.T) {
	a := newTestArena(t, 1, 256)
	n, _ := a.Node(0)
	f := func(data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		if err := n.SetLen(copy(n.Buf(), data)); err != nil {
			return false
		}
		return bytes.Equal(n.Payload(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Index returns the node's arena slot (stable for the node's lifetime).
func (n *Node) Index() uint32 { return n.index }

// Len returns the number of nodes in the arena.
func (a *Arena) Len() int { return len(a.nodes) }

// Node returns the node at the given arena index.
func (a *Arena) Node(index uint32) (*Node, error) {
	if int(index) >= len(a.nodes) {
		return nil, fmt.Errorf("mem: node index %d outside arena of %d", index, len(a.nodes))
	}
	return &a.nodes[index], nil
}

// Empty reports whether the mbox currently holds no nodes.
func (m *Mbox) Empty() bool { return m.Len() == 0 }
