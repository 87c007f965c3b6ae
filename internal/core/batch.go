package core

import "errors"

// Batch-path helpers: the allocation patterns every batch consumer
// needs, factored out so system eactors (netactors, the kv pipeline, the
// XMPP shards) share one idiom instead of hand-rolling buffer pools.

// BatchBufs preallocates n receive buffers of size bytes each (one
// backing allocation) plus the matching length array — the arguments
// Self.RecvBatch and Endpoint.RecvBatch expect. Allocate once in an
// eactor's constructor; the buffers are reused every invocation.
func BatchBufs(n, size int) ([][]byte, []int) {
	backing := make([]byte, n*size)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return bufs, make([]int, n)
}

// SendStage is an eactor's outbox towards a channel: frames are encoded
// into its reusable per-slot buffers and Flush sends them with one
// SendBatch, so the steady state allocates nothing. It is also the one
// backpressure policy: the frames a full mailbox or an empty pool
// refuses stay staged, in their own slots and in push order, and go out
// first on the next Flush. No body sleeps on a full mailbox and no frame
// is copied to wait. Usage per frame:
//
//	buf := stage.Slot()
//	frame, err := msg.AppendTo(buf)
//	if err == nil { stage.Push(frame) }
//
// then stage.Flush(ep), once per round or whenever the stage has grown a
// batch. A frame handed to Push must have been built on the slice Slot
// returned (possibly grown by append); the stage keeps the grown
// capacity for reuse. A stage holds at most maxStaged frames: Push
// refuses more (slow-receiver protection; data paths shed the frame).
type SendStage struct {
	// slots[:n] are the staged frames in push order; slots[n:] are the
	// buffers of frames already sent, kept for reuse.
	slots [][]byte
	n     int
}

// maxStaged bounds the frames one stage holds against a receiver that
// has stopped draining.
const maxStaged = 4096

// Len returns the number of staged frames, backlog included.
func (s *SendStage) Len() int { return s.n }

// Slot returns the next reusable frame buffer, empty, for appending.
func (s *SendStage) Slot() []byte {
	if s.n == len(s.slots) {
		s.slots = append(s.slots, nil)
	}
	return s.slots[s.n][:0]
}

// Push stages a frame built on the buffer the preceding Slot returned
// and reports whether the stage took it: a stage already holding
// maxStaged frames refuses it (keeping its buffer for the next Slot).
func (s *SendStage) Push(frame []byte) bool {
	s.slots[s.n] = frame // keep any capacity append grew
	if s.n == maxStaged {
		return false
	}
	s.n++
	return true
}

// Flush sends the staged frames to ep as one batch, leftovers of earlier
// rounds first, and returns how many went; a short count comes with
// ErrMailboxFull or ErrPoolEmpty, as from SendBatch. It offers the
// mailbox no more than it has room for, so a full mailbox costs a failed
// send, not the staging and sealing of the whole backlog. The frames it
// refuses stay staged for the next Flush, and the sent frames' slots
// rotate behind them for reuse. A frame ep can never carry
// (ErrPayloadTooLarge) is dropped, so it cannot wedge the frames staged
// behind it.
func (s *SendStage) Flush(ep *Endpoint) (int, error) {
	frames := s.slots[:s.n]
	if len(frames) == 0 {
		return 0, nil
	}
	free := ep.out.Cap() - ep.out.Len()
	if free == 0 {
		return 0, ep.sendFailed(ErrMailboxFull)
	}
	if free < len(frames) {
		frames = frames[:free]
	}
	sent, err := ep.SendBatch(frames)
	if err == nil && sent < s.n {
		err = ErrMailboxFull // the mailbox had room for these only
	}
	switch {
	case sent == s.n:
		s.n = 0
	case errors.Is(err, ErrPayloadTooLarge):
		limit, kept := ep.MaxPayload(), 0
		for i, f := range s.slots[:s.n] {
			if len(f) <= limit {
				s.slots[kept], s.slots[i] = f, s.slots[kept]
				kept++
			}
		}
		s.n = kept
	default:
		for i := sent; i < s.n; i++ {
			s.slots[i-sent], s.slots[i] = s.slots[i], s.slots[i-sent]
		}
		s.n -= sent
	}
	return sent, err
}
