package netactors

import "sync"

// readyQueue is the binding point between the read pumps and one READER
// eactor: pumps push sockets whose inbox gained work (dedup'd by
// Socket.queued), the READER pops and drains exactly those — never
// scanning its full watch set. Each entry appears at most once, so the
// queue is bounded by the watch count.
type readyQueue struct {
	mu   sync.Mutex
	q    []*Socket
	head int
}

func newReadyQueue() *readyQueue { return &readyQueue{} }

func (rq *readyQueue) push(s *Socket) {
	rq.mu.Lock()
	rq.q = append(rq.q, s)
	rq.mu.Unlock()
}

func (rq *readyQueue) pop() *Socket {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if rq.head == len(rq.q) {
		rq.q = rq.q[:0]
		rq.head = 0
		return nil
	}
	s := rq.q[rq.head]
	rq.q[rq.head] = nil
	rq.head++
	if rq.head == len(rq.q) {
		rq.q = rq.q[:0]
		rq.head = 0
	}
	return s
}

// remove deletes s if queued (unwatch during handoff), reporting
// whether it was present.
func (rq *readyQueue) remove(s *Socket) bool {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	for i := rq.head; i < len(rq.q); i++ {
		if rq.q[i] == s {
			rq.q = append(rq.q[:i], rq.q[i+1:]...)
			return true
		}
	}
	return false
}
