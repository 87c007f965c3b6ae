package xmpp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/testutil/allocs"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

// TestShardRouteAllocatesNothing: a one-to-one chat stanza arriving
// from the READER, scanned, looked up in an unsealed Online list and
// staged and flushed to the WRITER — the route xmpp_o2o drives twice
// per operation — allocates nothing.
func TestShardRouteAllocatesNothing(t *testing.T) { testShardRouteAllocations(t, false) }

// TestSealedShardRouteAllocatesNothing is the same route over a list
// sealed at rest, as every multi-enclave layout deploys it: the entry is
// opened into the shard's scratch buffer, not a fresh one.
func TestSealedShardRouteAllocatesNothing(t *testing.T) { testShardRouteAllocations(t, true) }

func testShardRouteAllocations(t *testing.T, sealed bool) {
	allocs.SkipUnderRace(t)
	var writer *core.Endpoint
	noop := func(*core.Self) {}
	cfg := core.Config{
		Enclaves: []core.EnclaveSpec{{Name: "xmpp-0"}},
		Workers:  []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: shardName(0), Enclave: "xmpp-0"},
			{Name: writerName(0), Body: noop, Init: func(self *core.Self) error {
				writer = self.MustChannel("write-0")
				return nil
			}},
			{Name: "closer", Body: noop},
		},
		Channels: []core.ChannelSpec{
			{Name: "write-0", A: shardName(0), B: writerName(0), Plaintext: true},
			{Name: "close-0", A: shardName(0), B: "closer", Plaintext: true},
		},
	}
	online, err := NewOnlineList(sealed, testKey())
	if err != nil {
		t.Fatal(err)
	}
	const from, to = uint32(7), uint32(8)
	online.Add(OnlineEntry{User: "alice", Sock: from, Key: "00"})
	online.Add(OnlineEntry{User: "bob", Sock: to, Key: "00"})
	srv := &Server{online: online, rooms: NewRoomTable()}
	chat := []byte(stanza.Message("alice", "bob", strings.Repeat("x", 150)))
	read, err := (netactors.Msg{Type: netactors.MsgData, Sock: from, Data: chat}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs.InActor(t, cfg, shardName(0), func(self *core.Self) {
		st := &shardState{pcl: map[uint32]*session{from: {sock: from, user: "alice", authed: true, sawHdr: true}}}
		write, closeCh := self.MustChannel("write-0"), self.MustChannel("close-0")
		bufs, lens := core.BatchBufs(1, core.DefaultNodePayload)
		hop := func() {
			srv.shardRead(self, st, read, write, closeCh)
			srv.flushWrites(st, write)
			if n, _ := writer.RecvBatch(bufs, lens); n != 1 {
				t.Errorf("WRITER got %d frames, want 1", n)
				return
			}
			m, err := netactors.ParseMsg(bufs[0][:lens[0]])
			if err != nil || m.Type != netactors.MsgData || m.Sock != to || !bytes.Equal(m.Data, chat) {
				t.Errorf("WRITER frame: %+v, %v", m, err)
			}
		}
		hop()
		if n := testing.AllocsPerRun(1000, hop); n != 0 {
			t.Errorf("shard read-scan-route-flush allocates %v times per stanza, want 0", n)
		}
		// Our hop, AllocsPerRun's warm-up run and its 1000 measured ones.
		if srv.routed.Load() != 1002 {
			t.Errorf("routed %d stanzas, want 1002", srv.routed.Load())
		}
	})
}
