package profile

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// sampleModel builds a fully-populated model so round-trips exercise
// every field of the schema.
func sampleModel() Model {
	return Model{
		V:            SnapshotVersion,
		CapturedAtNs: 123456789,
		SampleEvery:  16,
		Actors: []ActorCost{
			{
				Name: "frontend", Worker: 0,
				Invocations: 10, InvokeNs: 1000,
				MsgsSent: 5, BytesSent: 640, MsgsRecv: 5, BytesRecv: 320,
			},
			{
				Name: "kvstore-0", Enclave: "kv-0", Worker: 2,
				Invocations: 7, InvokeNs: 2000, Crossings: 14,
				SealOps: 5, SealNs: 800, SealBytes: 320,
				OpenOps: 5, OpenNs: 700, OpenBytes: 640,
				DwellNs: 5000, DwellSamples: 2,
			},
		},
		Edges: []EdgeCost{
			{Src: "frontend", Dst: "kvstore-0", Channel: "req-0", Msgs: 5, Bytes: 640},
		},
		Enclaves: []EnclaveCost{
			{Name: "kv-0", Crossings: 14},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleModel()
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatalf("Encode must emit one newline-terminated JSONL record, got %q", buf.String())
	}
	got, err := Decode(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	for _, v := range []int{0, SnapshotVersion + 1, 99} {
		line := fmt.Sprintf(`{"v":%d,"captured_at_ns":1}`, v)
		if _, err := Decode([]byte(line)); !errors.Is(err, ErrUnknownVersion) {
			t.Errorf("Decode(v=%d) error = %v, want ErrUnknownVersion", v, err)
		}
	}
	// A version-1 record, which still carried the enclaves' page and
	// eviction fields.
	v1 := `{"v":1,"captured_at_ns":1,"enclaves":[{"name":"kv-0","pages_resident":32,"evicted_pages":3,"crossings":14}]}`
	if _, err := Decode([]byte(v1)); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("Decode(v1 record) error = %v, want ErrUnknownVersion", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil || errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("Decode(malformed) error = %v, want a parse error", err)
	}
}
