package core

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

// SendStage accumulates encoded frames for one SendBatch call, reusing
// per-slot buffers across rounds so the steady state allocates nothing.
// Usage per frame:
//
//	buf := stage.Slot()
//	frame, err := msg.AppendTo(buf)
//	if err == nil { stage.Push(frame) }
//
// then one SendBatch(stage.Frames()) and stage.Reset(). A frame handed
// to Push must have been built on the slice Slot returned (possibly
// grown by append); the stage keeps the grown capacity for reuse. The
// frames are only valid until the next Reset — callers that must keep
// one (e.g. a backpressure retry queue) copy it first.
type SendStage struct {
	frames [][]byte
	slots  [][]byte
}

// Len returns the number of staged frames.
func (s *SendStage) Len() int { return len(s.frames) }

// Frames returns the staged frames in push order.
func (s *SendStage) Frames() [][]byte { return s.frames }

// Reset clears the stage for the next round, keeping slot capacity.
func (s *SendStage) Reset() { s.frames = s.frames[:0] }

// Slot returns the next reusable frame buffer, empty, for appending.
func (s *SendStage) Slot() []byte {
	if len(s.frames) == len(s.slots) {
		s.slots = append(s.slots, nil)
	}
	return s.slots[len(s.frames)][:0]
}

// Push stages a frame built on the buffer the preceding Slot returned.
func (s *SendStage) Push(frame []byte) {
	s.slots[len(s.frames)] = frame // keep any capacity append grew
	s.frames = append(s.frames, frame)
}
