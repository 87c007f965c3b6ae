package bench

import (
	"fmt"
	"time"

	"github.com/eactors/eactors-go/internal/load"
	"github.com/eactors/eactors-go/internal/sgx"
	"github.com/eactors/eactors-go/internal/xmpp"
	"github.com/eactors/eactors-go/internal/xmpp/baseline"
)

// messagePayloadBytes matches the paper's O2O workload: pseudo-random
// strings of at most 150 bytes (Section 6.4.1).
const messagePayloadBytes = 150

// xmppDeployment abstracts "some server we can point clients at".
type xmppDeployment struct {
	name string
	addr string
	stop func()
}

// startDeployment launches one of the five Figure 14 systems.
//
//	EJB    — ejabberd baseline
//	JBD2   — JabberD2 baseline
//	EA/3   — EActors, 1 XMPP shard (3 eactors)
//	EA/6   — EActors, 2 shards
//	EA/48  — EActors, 16 shards
func startDeployment(name string, trusted bool, enclaves int, ssl bool) (*xmppDeployment, error) {
	switch name {
	case "EJB":
		srv, err := baseline.Start(baseline.Options{Kind: baseline.EjabberdKind, SSL: ssl})
		if err != nil {
			return nil, err
		}
		return &xmppDeployment{name: name, addr: srv.Addr(), stop: srv.Stop}, nil
	case "JBD2":
		srv, err := baseline.Start(baseline.Options{Kind: baseline.JabberD2Kind, SSL: ssl})
		if err != nil {
			return nil, err
		}
		return &xmppDeployment{name: name, addr: srv.Addr(), stop: srv.Stop}, nil
	}
	shards, ok := map[string]int{"EA/3": 1, "EA/6": 2, "EA/48": 16}[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown deployment %q", name)
	}
	if enclaves == 0 {
		enclaves = shards
	}
	srv, err := xmpp.Start(xmpp.Options{
		Shards:       shards,
		Trusted:      trusted,
		EnclaveCount: enclaves,
		Platform:     sgx.NewPlatform(),
	})
	if err != nil {
		return nil, err
	}
	return &xmppDeployment{name: name, addr: srv.Addr(), stop: srv.Stop}, nil
}

// runO2OWorkload drives the paper's one-to-one scenario (load.RunO2O)
// and returns requests/second over the measure window.
func runO2OWorkload(addr string, clients int, warmup, measure time.Duration) (float64, error) {
	st, err := load.RunO2O(load.O2O{Addr: addr, Clients: clients,
		Body: string(randomPayload(messagePayloadBytes)), Warmup: warmup, Measure: measure})
	return st.Rate(), err
}

// Fig14Config parameterises the O2O scalability sweep.
type Fig14Config struct {
	Clients     []int
	Deployments []string
	Warmup      time.Duration
	Measure     time.Duration
}

// DefaultFig14 is the paper-scale sweep (the paper measures 1 minute
// per point; the default here uses shorter steady-state windows).
func DefaultFig14() Fig14Config {
	return Fig14Config{
		Clients:     []int{100, 200, 400, 600, 800, 1000},
		Deployments: []string{"EJB", "JBD2", "EA/3", "EA/6", "EA/48"},
		Warmup:      time.Second,
		Measure:     5 * time.Second,
	}
}

// Fig14Scalability measures throughput against concurrent client count
// for the five deployments.
func Fig14Scalability(cfg Fig14Config) ([]Row, error) {
	var rows []Row
	for _, name := range cfg.Deployments {
		for _, clients := range cfg.Clients {
			dep, err := startDeployment(name, true, 0, false)
			if err != nil {
				return nil, err
			}
			thr, err := runO2OWorkload(dep.addr, clients, cfg.Warmup, cfg.Measure)
			dep.stop()
			if err != nil {
				return nil, fmt.Errorf("bench: fig14 %s clients=%d: %w", name, clients, err)
			}
			rows = append(rows, Row{
				Figure: "fig14", Series: name,
				XLabel: "clients", X: float64(clients),
				Value: thr, Unit: "req/s",
			})
		}
	}
	return rows, nil
}

// Fig15Config parameterises the group-chat comparison.
type Fig15Config struct {
	Participants []int
	Warmup       time.Duration
	Measure      time.Duration
}

// DefaultFig15 is the paper-scale sweep.
func DefaultFig15() Fig15Config {
	return Fig15Config{
		Participants: []int{20, 40, 60, 80, 100},
		Warmup:       500 * time.Millisecond,
		Measure:      4 * time.Second,
	}
}

// Fig15GroupChat compares EJB, SSL-enabled JBD2, EA/trusted and
// EA/untrusted on a single group chat of growing size.
func Fig15GroupChat(cfg Fig15Config) ([]Row, error) {
	type variant struct {
		series string
		start  func() (*xmppDeployment, error)
	}
	variants := []variant{
		{"EJB", func() (*xmppDeployment, error) { return startDeployment("EJB", false, 0, false) }},
		{"JBD2", func() (*xmppDeployment, error) { return startDeployment("JBD2", false, 0, true) }},
		{"EA/trusted", func() (*xmppDeployment, error) { return startDeployment("EA/3", true, 1, false) }},
		{"EA/untrusted", func() (*xmppDeployment, error) { return startDeployment("EA/3", false, 0, false) }},
		// EA/dedicated is an ablation beyond the paper's figure: the
		// group chat confined to its own enclave (the Section 2.1
		// security configuration), measuring what the extra forward hop
		// and enclave cost.
		{"EA/dedicated", func() (*xmppDeployment, error) {
			srv, err := xmpp.Start(xmpp.Options{
				Shards:         1,
				Trusted:        true,
				EnclaveCount:   1,
				DedicatedRooms: []string{benchRoom},
				Platform:       sgx.NewPlatform(),
			})
			if err != nil {
				return nil, err
			}
			return &xmppDeployment{name: "EA/dedicated", addr: srv.Addr(), stop: srv.Stop}, nil
		}},
	}
	var rows []Row
	for _, v := range variants {
		for _, participants := range cfg.Participants {
			dep, err := v.start()
			if err != nil {
				return nil, err
			}
			thr, err := runGroupWorkload(dep.addr, participants, cfg.Warmup, cfg.Measure)
			dep.stop()
			if err != nil {
				return nil, fmt.Errorf("bench: fig15 %s n=%d: %w", v.series, participants, err)
			}
			rows = append(rows, Row{
				Figure: "fig15", Series: v.series,
				XLabel: "participants", X: float64(participants),
				Value: thr, Unit: "req/s",
			})
		}
	}
	return rows, nil
}

// benchRoom is the group-chat room of Fig. 15; EA/dedicated confines it
// to its own enclave.
const benchRoom = "bench-room"

// runGroupWorkload drives the self-clocked group chat (load.RunGroup)
// and returns group messages/second.
func runGroupWorkload(addr string, participants int, warmup, measure time.Duration) (float64, error) {
	st, err := load.RunGroup(load.Group{Addr: addr, Room: benchRoom, Members: participants,
		Body: string(randomPayload(messagePayloadBytes)), Warmup: warmup, Measure: measure})
	return st.Rate(), err
}

// Fig16Config parameterises the enclave-count sweep: 16 shards (48
// eactors) in 1, 2 or 16 enclaves, 400 clients.
type Fig16Config struct {
	Enclaves []int
	Clients  int
	Warmup   time.Duration
	Measure  time.Duration
}

// DefaultFig16 is the paper-scale configuration.
func DefaultFig16() Fig16Config {
	return Fig16Config{
		Enclaves: []int{1, 2, 16},
		Clients:  400,
		Warmup:   time.Second,
		Measure:  5 * time.Second,
	}
}

// Fig16EnclaveCount measures the throughput impact of spreading a fixed
// 48-eactor deployment over a varying number of enclaves.
func Fig16EnclaveCount(cfg Fig16Config) ([]Row, error) {
	var rows []Row
	for _, enclaves := range cfg.Enclaves {
		dep, err := startDeployment("EA/48", true, enclaves, false)
		if err != nil {
			return nil, err
		}
		thr, err := runO2OWorkload(dep.addr, cfg.Clients, cfg.Warmup, cfg.Measure)
		dep.stop()
		if err != nil {
			return nil, fmt.Errorf("bench: fig16 enclaves=%d: %w", enclaves, err)
		}
		rows = append(rows, Row{
			Figure: "fig16", Series: "EA/48",
			XLabel: "enclaves", X: float64(enclaves),
			Value: thr, Unit: "req/s",
		})
	}
	return rows, nil
}

// Fig17Config parameterises the trusted-vs-untrusted overhead check.
type Fig17Config struct {
	Deployments []string
	Clients     int
	Warmup      time.Duration
	Measure     time.Duration
}

// DefaultFig17 is the paper-scale configuration.
func DefaultFig17() Fig17Config {
	return Fig17Config{
		Deployments: []string{"EA/3", "EA/6", "EA/48"},
		Clients:     400,
		Warmup:      time.Second,
		Measure:     5 * time.Second,
	}
}

// Fig17TrustedOverhead measures each deployment in trusted and
// untrusted mode.
func Fig17TrustedOverhead(cfg Fig17Config) ([]Row, error) {
	var rows []Row
	for _, name := range cfg.Deployments {
		for _, trusted := range []bool{true, false} {
			dep, err := startDeployment(name, trusted, 0, false)
			if err != nil {
				return nil, err
			}
			thr, err := runO2OWorkload(dep.addr, cfg.Clients, cfg.Warmup, cfg.Measure)
			dep.stop()
			if err != nil {
				return nil, fmt.Errorf("bench: fig17 %s trusted=%v: %w", name, trusted, err)
			}
			mode := "untrusted"
			x := 0.0
			if trusted {
				mode = "trusted"
				x = 1.0
			}
			rows = append(rows, Row{
				Figure: "fig17", Series: name + "/" + mode,
				XLabel: "trusted", X: x,
				Value: thr, Unit: "req/s",
			})
		}
	}
	return rows, nil
}
