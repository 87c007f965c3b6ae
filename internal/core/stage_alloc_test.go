package core_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/testutil/allocs"
)

// TestSendStageBackpressureAllocatesNothing: a stage whose mailbox keeps
// refusing part of every flush, so the refused frames wait and their
// slots rotate each round, allocates nothing, and the consumer still
// sees every frame in push order.
func TestSendStageBackpressureAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	const capacity = 4
	var consumer *core.Endpoint
	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "producer"},
			{Name: "consumer", Body: func(*core.Self) {}, Init: func(self *core.Self) error {
				consumer = self.MustChannel("link")
				return nil
			}},
		},
		Channels: []core.ChannelSpec{{Name: "link", A: "producer", B: "consumer", Capacity: capacity, Plaintext: true}},
	}
	allocs.InActor(t, cfg, "producer", func(self *core.Self) {
		link := self.MustChannel("link")
		var stage core.SendStage
		bufs, lens := core.BatchBufs(capacity, 64)
		var pushed, next uint32
		push := func(n int) {
			for i := 0; i < n; i++ {
				stage.Push(binary.LittleEndian.AppendUint32(stage.Slot(), pushed))
				pushed++
			}
		}
		// A backlog of more frames than the mailbox holds stays staged
		// from here on: each round pushes and sends one mailbox's worth.
		const backlog = capacity + 2
		push(backlog)
		round := func() {
			push(capacity)
			if sent, err := stage.Flush(link); sent != capacity || !errors.Is(err, core.ErrMailboxFull) {
				t.Errorf("Flush = %d, %v; want %d, ErrMailboxFull", sent, err, capacity)
			}
			if sent, err := stage.Flush(link); sent != 0 || !errors.Is(err, core.ErrMailboxFull) {
				t.Errorf("Flush into a full mailbox = %d, %v; want 0, ErrMailboxFull", sent, err)
			}
			n, _ := consumer.RecvBatch(bufs, lens)
			for i := 0; i < n; i++ {
				if got := binary.LittleEndian.Uint32(bufs[i]); got != next {
					t.Errorf("received frame %d, want %d", got, next)
				}
				next++
			}
		}
		round()
		if n := testing.AllocsPerRun(1000, round); n != 0 {
			t.Errorf("a flush under backpressure allocates %v times, want 0", n)
		}
		if stage.Len() != backlog || pushed-next != backlog {
			t.Errorf("%d staged, %d pushed, %d received; want %d staged", stage.Len(), pushed, next, backlog)
		}
	})
}
