package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// This file implements the paper's deployment-configuration mechanism
// (Section 3.2): "the developer defines the necessary mapping of
// computational resources and trusted execution contexts of eactors in
// a special configuration file". The paper generates source from it;
// Go has no code-generation step at run time, so the equivalent is a
// JSON document resolved against a Registry of actor implementations —
// the same actor code deploys under different files without
// recompilation of its logic.

// Registry maps actor type names (the code) to their implementations.
// Deployment files reference these names; the Config assembles them
// with per-file placement.
type Registry map[string]RegisteredActor

// RegisteredActor is one actor implementation available to deployment
// files.
type RegisteredActor struct {
	// Init is the optional constructor.
	Init Init
	// Body is the mandatory body function.
	Body Body
	// NewState optionally builds a fresh private state per instance.
	NewState func() any
}

// Register adds an implementation, rejecting duplicates.
func (r Registry) Register(name string, actor RegisteredActor) error {
	if name == "" {
		return fmt.Errorf("core: registering actor type with empty name")
	}
	if actor.Body == nil {
		return fmt.Errorf("core: actor type %q has no body", name)
	}
	if _, dup := r[name]; dup {
		return fmt.Errorf("core: actor type %q already registered", name)
	}
	r[name] = actor
	return nil
}

// Deployment is the serialised form of a Config.
type Deployment struct {
	// Enclaves to create.
	Enclaves []DeploymentEnclave `json:"enclaves,omitempty"`
	// Workers to start; at least one required.
	Workers []DeploymentWorker `json:"workers"`
	// Actors to instantiate.
	Actors []DeploymentActor `json:"actors"`
	// Channels wiring the actors.
	Channels []DeploymentChannel `json:"channels,omitempty"`
	// PoolNodes / NodePayload size the shared pool (defaults apply).
	PoolNodes   int `json:"poolNodes,omitempty"`
	NodePayload int `json:"nodePayload,omitempty"`
	// IdleSleepMicros is the worker idle backstop in microseconds.
	IdleSleepMicros int `json:"idleSleepMicros,omitempty"`
}

// DeploymentEnclave mirrors EnclaveSpec.
type DeploymentEnclave struct {
	Name             string `json:"name"`
	SizeBytes        int    `json:"sizeBytes,omitempty"`
	PrivatePoolNodes int    `json:"privatePoolNodes,omitempty"`
}

// DeploymentWorker mirrors WorkerSpec: one {} per worker.
type DeploymentWorker struct{}

// DeploymentActor instantiates a registered actor type under a name
// with a placement.
type DeploymentActor struct {
	// Name is the instance name (channel endpoints reference it).
	Name string `json:"name"`
	// Type is the Registry key of the implementation.
	Type string `json:"type"`
	// Enclave places the instance ("" = untrusted).
	Enclave string `json:"enclave,omitempty"`
	// Worker is the executing worker index.
	Worker int `json:"worker"`
}

// DeploymentChannel mirrors ChannelSpec.
type DeploymentChannel struct {
	Name      string `json:"name"`
	A         string `json:"a"`
	B         string `json:"b"`
	Plaintext bool   `json:"plaintext,omitempty"`
	Capacity  int    `json:"capacity,omitempty"`
}

// ParseDeployment decodes a deployment document, rejecting unknown
// fields (typos in placement files must not silently deploy wrong).
func ParseDeployment(data []byte) (*Deployment, error) {
	var d Deployment
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("core: parsing deployment: %w", err)
	}
	return &d, nil
}

// Resolve assembles a runnable Config by looking every actor type up in
// the registry. Validation of the resulting Config happens in
// NewRuntime.
func (d *Deployment) Resolve(registry Registry) (Config, error) {
	cfg := Config{
		PoolNodes:   d.PoolNodes,
		NodePayload: d.NodePayload,
		IdleSleep:   time.Duration(d.IdleSleepMicros) * time.Microsecond,
	}
	for _, e := range d.Enclaves {
		cfg.Enclaves = append(cfg.Enclaves, EnclaveSpec{
			Name:             e.Name,
			SizeBytes:        e.SizeBytes,
			PrivatePoolNodes: e.PrivatePoolNodes,
		})
	}
	cfg.Workers = make([]WorkerSpec, len(d.Workers))
	for _, a := range d.Actors {
		impl, ok := registry[a.Type]
		if !ok {
			return Config{}, fmt.Errorf("core: deployment references unknown actor type %q", a.Type)
		}
		spec := Spec{
			Name:    a.Name,
			Enclave: a.Enclave,
			Worker:  a.Worker,
			Init:    impl.Init,
			Body:    impl.Body,
		}
		if impl.NewState != nil {
			spec.State = impl.NewState()
		}
		cfg.Actors = append(cfg.Actors, spec)
	}
	for _, c := range d.Channels {
		cfg.Channels = append(cfg.Channels, ChannelSpec{
			Name: c.Name, A: c.A, B: c.B,
			Plaintext: c.Plaintext, Capacity: c.Capacity,
		})
	}
	return cfg, nil
}
