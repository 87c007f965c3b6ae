package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const testDeployment = `{
  "enclaves": [
    {"name": "left", "privatePoolNodes": 8},
    {"name": "right"}
  ],
  "workers": [{}, {}],
  "actors": [
    {"name": "ping", "type": "pinger", "enclave": "left", "worker": 0},
    {"name": "pong", "type": "ponger", "enclave": "right", "worker": 1}
  ],
  "channels": [
    {"name": "pp", "a": "ping", "b": "pong", "capacity": 8}
  ],
  "poolNodes": 32,
  "nodePayload": 128,
  "idleSleepMicros": 500
}`

func testRegistry(rounds *atomic.Int64, target int64) Registry {
	reg := Registry{}
	type pingState struct{ first bool }
	_ = reg.Register("pinger", RegisteredActor{
		NewState: func() any { return &pingState{first: true} },
		Body: func(self *Self) {
			st := self.State.(*pingState)
			ch := self.MustChannel("pp")
			buf := make([]byte, 8)
			if st.first {
				st.first = false
				_ = ch.Send([]byte("ping")) //sendcheck:ok
				self.Progress()
				return
			}
			if _, ok, _ := ch.Recv(buf); ok {
				if rounds.Add(1) >= target {
					self.StopRuntime()
					return
				}
				_ = ch.Send([]byte("ping")) //sendcheck:ok
				self.Progress()
			}
		},
	})
	_ = reg.Register("ponger", RegisteredActor{
		Body: func(self *Self) {
			ch := self.MustChannel("pp")
			buf := make([]byte, 8)
			if _, ok, _ := ch.Recv(buf); ok {
				_ = ch.Send([]byte("pong")) //sendcheck:ok
				self.Progress()
			}
		},
	})
	return reg
}

func TestDeploymentEndToEnd(t *testing.T) {
	d, err := ParseDeployment([]byte(testDeployment))
	if err != nil {
		t.Fatalf("ParseDeployment: %v", err)
	}
	var rounds atomic.Int64
	cfg, err := d.Resolve(testRegistry(&rounds, 25))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if cfg.PoolNodes != 32 || cfg.NodePayload != 128 {
		t.Fatalf("pool geometry = %d/%d", cfg.PoolNodes, cfg.NodePayload)
	}
	if cfg.IdleSleep != 500*time.Microsecond {
		t.Fatalf("IdleSleep = %v", cfg.IdleSleep)
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()
	if rounds.Load() < 25 {
		t.Fatalf("rounds = %d", rounds.Load())
	}
	// The deployed channel crosses enclaves → encrypted.
	ch, _ := rt.ChannelByName("pp")
	if !ch.Encrypted() {
		t.Fatal("cross-enclave deployed channel not encrypted")
	}
	// Private pool materialised from the file.
	if _, ok := rt.PrivatePool("left"); !ok {
		t.Fatal("private pool from deployment file missing")
	}
}

func TestDeploymentRedeployOtherPlacement(t *testing.T) {
	// The same registry deploys untrusted on one worker — the paper's
	// flexibility claim, exercised through the file mechanism.
	flat := `{
	  "workers": [{}],
	  "actors": [
	    {"name": "ping", "type": "pinger", "worker": 0},
	    {"name": "pong", "type": "ponger", "worker": 0}
	  ],
	  "channels": [{"name": "pp", "a": "ping", "b": "pong"}]
	}`
	d, err := ParseDeployment([]byte(flat))
	if err != nil {
		t.Fatal(err)
	}
	var rounds atomic.Int64
	cfg, err := d.Resolve(testRegistry(&rounds, 25))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(zeroPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitOrFatal(t, rt, 10*time.Second)
	rt.Stop()
	if rounds.Load() < 25 {
		t.Fatalf("rounds = %d", rounds.Load())
	}
}

func TestDeploymentErrors(t *testing.T) {
	if _, err := ParseDeployment([]byte(`{"bogusField": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Worker pinning was retired with the locked-thread worker: a file
	// that still asks for it must be refused by name, not half-deployed.
	_, err := ParseDeployment([]byte(`{"workers": [{"cpus": [0]}], "actors": []}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "cpus"`) {
		t.Fatalf(`deployment with "cpus" = %v, want unknown-field error naming it`, err)
	}
	if _, err := ParseDeployment([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}

	d, err := ParseDeployment([]byte(`{
	  "workers": [{}],
	  "actors": [{"name": "x", "type": "ghost", "worker": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(Registry{}); err == nil {
		t.Fatal("unknown actor type accepted")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := Registry{}
	body := func(*Self) {}
	if err := reg.Register("", RegisteredActor{Body: body}); err == nil {
		t.Fatal("empty type name accepted")
	}
	if err := reg.Register("nobody", RegisteredActor{}); err == nil {
		t.Fatal("bodyless actor accepted")
	}
	if err := reg.Register("ok", RegisteredActor{Body: body}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("ok", RegisteredActor{Body: body}); err == nil {
		t.Fatal("duplicate type accepted")
	}
}
