package core

import (
	"testing"
)

func TestRuntimeReport(t *testing.T) {
	a, _, rt := buildPair(t, true, 8, 16, 128)
	if err := a.Send([]byte("traffic")); err != nil {
		t.Fatal(err)
	}
	r := rt.Report()

	if len(r.Workers) != 1 {
		t.Fatalf("workers = %d", len(r.Workers))
	}
	if len(r.Workers[0].Actors) != 2 {
		t.Fatalf("worker actors = %v", r.Workers[0].Actors)
	}
	if len(r.Channels) != 1 || r.Channels[0].Name != "link" {
		t.Fatalf("channels = %+v", r.Channels)
	}
	if !r.Channels[0].Encrypted {
		t.Fatal("cross-enclave channel reported plaintext")
	}
	if r.Channels[0].Stats.AToB != 1 {
		t.Fatalf("AToB = %d", r.Channels[0].Stats.AToB)
	}
	if len(r.Enclaves) != 2 {
		t.Fatalf("enclaves = %+v", r.Enclaves)
	}
	for _, e := range r.Enclaves {
		if e.PrivatePoolFree != -1 {
			t.Fatalf("enclave %s reports a private pool it does not have", e.Name)
		}
	}
	if r.PublicPoolFree != 15 { // one node in flight
		t.Fatalf("PublicPoolFree = %d", r.PublicPoolFree)
	}
	if len(r.FailedActors) != 0 {
		t.Fatalf("FailedActors = %v", r.FailedActors)
	}
	// The attestation handshake consumed trusted RNG bytes.
	if r.Platform.RandBytes == 0 {
		t.Fatal("platform counters missing from report")
	}
}
