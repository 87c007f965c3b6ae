package kv

import (
	"bytes"
	"testing"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/netactors"
	"github.com/eactors/eactors-go/internal/pos"
	"github.com/eactors/eactors-go/internal/testutil/allocs"
	"github.com/eactors/eactors-go/internal/transport"
)

// getFrame encodes a framed GET for key with the given opaque into buf.
func getFrame(buf []byte, opaque uint32, key []byte) []byte {
	payload, _ := Request{Op: OpGet, Key: key}.AppendTo(buf[transport.HeaderSize:transport.HeaderSize])
	frame, _ := transport.AppendFrame(buf[:0], transport.Frame{Type: transport.TRequest, Opaque: opaque, Payload: payload})
	return frame
}

// TestFrontendRouteAllocatesNothing: one GET frame fed to the FRONTEND's
// scanner, routed by key and flushed over the encrypted req channel to
// the enclaved KVSTORE allocates nothing.
func TestFrontendRouteAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	var store *core.Endpoint
	noop := func(*core.Self) {}
	cfg := core.Config{
		Enclaves: []core.EnclaveSpec{{Name: "kv-0"}},
		Workers:  []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "frontend"},
			{Name: storeName(0), Enclave: "kv-0", Body: noop, Init: func(self *core.Self) error {
				store = self.MustChannel(reqChannel(0))
				return nil
			}},
			{Name: "writer", Body: noop},
			{Name: "closer", Body: noop},
		},
		Channels: []core.ChannelSpec{
			{Name: reqChannel(0), A: "frontend", B: storeName(0)},
			{Name: "fwrite", A: "frontend", B: "writer", Plaintext: true},
			{Name: "close", A: "frontend", B: "closer", Plaintext: true},
		},
	}
	srv := &Server{}
	opts := Options{ReplayWindow: transport.DefaultReplayWindow}
	allocs.InActor(t, cfg, "frontend", func(self *core.Self) {
		st := newFrontendState(1)
		cs := &connState{helloSeen: true}
		const sock = 7
		st.socks[sock] = cs
		reqChans := []*core.Endpoint{self.MustChannel(reqChannel(0))}
		closeCh, fwrite := self.MustChannel("close"), self.MustChannel("fwrite")
		maxForward := netactors.MaxData(core.DefaultNodePayload)
		bufs, lens := core.BatchBufs(1, core.DefaultNodePayload)
		key := []byte("key-1234")
		wire := make([]byte, 0, 256)
		opaque := uint32(0)
		hop := func() {
			opaque++
			cs.frames.Feed(getFrame(wire, opaque, key))
			srv.routeFrames(self, st, opts, cs, sock, closeCh, fwrite, reqChans, 1, maxForward)
			_, _ = st.stages[0].Flush(reqChans[0])
			if n, _ := store.RecvBatch(bufs, lens); n != 1 {
				t.Errorf("KVSTORE got %d requests, want 1", n)
			}
		}
		hop()
		if n := testing.AllocsPerRun(1000, hop); n != 0 {
			t.Errorf("FRONTEND feed-and-route allocates %v times per request, want 0", n)
		}
		if _, ok := st.socks[sock]; !ok {
			t.Error("the FRONTEND dropped the session")
		}
	})
}

// TestStoreExecuteAllocatesNothing: the KVSTORE's executeFrame for a GET
// that hits the write-back cache allocates nothing, both for a new
// opaque (execute, encode, cache the response in its replay slot) and
// for a replayed one (answer from the slot).
func TestStoreExecuteAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	var key [ecrypto.KeySize]byte
	store, err := pos.OpenSharded(pos.ShardedOptions{Shards: 1, SizeBytes: 1 << 20, EncryptionKey: &key})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	k, v := []byte("key-1234"), bytes.Repeat([]byte{7}, 128)
	if err := store.Set(k, v); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Enclaves: []core.EnclaveSpec{{Name: "kv-0"}},
		Workers:  []core.WorkerSpec{{}},
		Actors:   []core.Spec{{Name: storeName(0), Enclave: "kv-0"}},
	}
	srv := &Server{store: store}
	opts := Options{ReplayWindow: transport.DefaultReplayWindow}
	allocs.InActor(t, cfg, storeName(0), func(self *core.Self) {
		st := &storeState{}
		wire := make([]byte, 0, 256)
		opaque := uint32(0)
		execute := func() []byte {
			msg := netactors.Msg{Type: netactors.MsgData, Sock: 7, Data: getFrame(wire, opaque, k)}
			return srv.executeFrame(self, st, opts, 0, msg)
		}
		fresh := func() {
			opaque++
			if out := execute(); len(out) == 0 {
				t.Errorf("opaque %d: no response", opaque)
			}
		}
		replayed := func() {
			if out := execute(); len(out) == 0 {
				t.Errorf("opaque %d replay: no response", opaque)
			}
		}
		for i := 0; i < 2*transport.DefaultReplayWindow; i++ { // size every replay slot
			fresh()
		}
		if n := testing.AllocsPerRun(1000, fresh); n != 0 {
			t.Errorf("executeFrame, new opaque: %v allocations per GET, want 0", n)
		}
		before := srv.replayed.Load()
		if n := testing.AllocsPerRun(1000, replayed); n != 0 {
			t.Errorf("executeFrame, replayed opaque: %v allocations per GET, want 0", n)
		}
		if srv.replayed.Load() == before {
			t.Error("the resends were executed, not replayed")
		}
	})
}
