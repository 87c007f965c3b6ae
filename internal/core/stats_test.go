package core

import (
	"errors"
	"testing"
)

func TestChannelStats(t *testing.T) {
	a, b, rt := buildPair(t, false, 4, 16, 64)
	ch, ok := rt.ChannelByName("link")
	if !ok {
		t.Fatal("channel missing")
	}
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	st := ch.Stats()
	if st.AToB != 3 || st.BToA != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Pending != 4 {
		t.Fatalf("Pending = %d", st.Pending)
	}

	buf := make([]byte, 64)
	if _, ok, err := b.Recv(buf); !ok || err != nil {
		t.Fatal("recv failed")
	}
	if a.Sent() != 3 || b.received.Load() != 1 {
		t.Fatalf("endpoint counters: sent=%d received=%d", a.Sent(), b.received.Load())
	}
}

func TestSendFailureCounters(t *testing.T) {
	a, _, _ := buildPair(t, false, 2, 16, 64)
	_ = a.Send([]byte("1")) //sendcheck:ok
	_ = a.Send([]byte("2")) //sendcheck:ok
	if err := a.Send([]byte("3")); !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("err = %v", err)
	}
	if a.sendFailures.Load() != 1 {
		t.Fatalf("SendFailures = %d", a.sendFailures.Load())
	}

	// Pool exhaustion also counts.
	a2, _, _ := buildPair(t, false, 8, 2, 64)
	_ = a2.Send([]byte("1")) //sendcheck:ok
	_ = a2.Send([]byte("2")) //sendcheck:ok
	if err := a2.Send([]byte("3")); !errors.Is(err, ErrPoolEmpty) {
		t.Fatalf("err = %v", err)
	}
	if a2.sendFailures.Load() != 1 {
		t.Fatalf("SendFailures = %d", a2.sendFailures.Load())
	}
}
