package netactors

import (
	"bytes"
	"net"
	"testing"

	"github.com/eactors/eactors-go/internal/core"
	"github.com/eactors/eactors-go/internal/testutil/allocs"
)

// TestReaderDrainAllocatesNothing: one inbound chunk, from the read
// buffer the pump takes through the READER's batched forward to the
// consumer, allocates nothing — the buffer goes back to the table's free
// list once the READER has staged a copy.
func TestReaderDrainAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	sys := NewSystem()
	defer sys.Shutdown()
	local, peer := net.Pipe()
	defer peer.Close()
	sock := sys.Table().AddConn(local)

	var app *core.Endpoint
	cfg := core.Config{
		Workers: []core.WorkerSpec{{}},
		Actors: []core.Spec{
			{Name: "app", Body: func(*core.Self) {}, Init: func(self *core.Self) error {
				app = self.MustChannel("read")
				return nil
			}},
			{Name: "reader"},
		},
		Channels: []core.ChannelSpec{{Name: "read", A: "app", B: "reader", Plaintext: true}},
	}
	request := bytes.Repeat([]byte{0xE3}, 180) // a framed KV GET's size
	allocs.InActor(t, cfg, "reader", func(self *core.Self) {
		w := &readWatch{ep: self.MustChannel("read"), sock: sock}
		var stage core.SendStage
		var scratch []byte
		bufs, lens := core.BatchBufs(drainBatch, core.DefaultNodePayload)
		hop := func() {
			buf := sock.bufs.get(readBufBytes) // the read pump's side
			sock.inbox <- buf[:copy(buf, request)]
			sys.drainSocket(self, w, &stage, &scratch)
			if n, _ := app.RecvBatch(bufs, lens); n != 1 {
				t.Errorf("consumer got %d messages, want 1", n)
			}
		}
		hop()
		if n := testing.AllocsPerRun(1000, hop); n != 0 {
			t.Errorf("READER drain of one chunk allocates %v times, want 0", n)
		}
	})
}

// TestWriterTableWriteAllocatesNothing: Table.Write hands a frame the
// kernel takes whole straight to the socket, through a write callback
// bound once per socket, so a written frame allocates nothing.
func TestWriterTableWriteAllocatesNothing(t *testing.T) {
	allocs.SkipUnderRace(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable()
	defer table.CloseAll()
	id := table.AddConn(server).ID()

	got := make(chan int)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := client.Read(buf)
			if err != nil {
				close(got)
				return
			}
			got <- n
		}
	}()
	frame := bytes.Repeat([]byte{0xE4}, 151) // a framed KV GET response
	write := func() {
		if err := table.Write(id, frame); err != nil {
			t.Fatal(err)
		}
		for read := 0; read < len(frame); {
			read += <-got
		}
	}
	write()
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("Table.Write allocates %v times per frame, want 0", n)
	}
}
