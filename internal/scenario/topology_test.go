package scenario

import (
	"context"
	"strings"
	"testing"

	"tireplay/internal/platform"
	"tireplay/internal/sim"
)

// topoSpecs returns 16-host zoo platforms as Spec JSON — the scenario layer
// never names the new constructors, proving topology selection is pure
// configuration.
func topoSpecs(t *testing.T) map[string]*platform.Spec {
	t.Helper()
	specs := map[string]string{
		"fattree": `{
			"name": "ft", "topology": "fattree", "radix": 4, "levels": 2,
			"speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6
		}`,
		"dragonfly": `{
			"name": "df", "topology": "dragonfly",
			"groups": 2, "routers_per_group": 2, "hosts_per_router": 4,
			"routing": "adaptive", "speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"local_bandwidth": 1.25e9, "local_latency": 1e-6,
			"global_bandwidth": 2.5e9, "global_latency": 1e-5
		}`,
		"torus": `{
			"name": "tor", "topology": "torus", "torus_dims": [4, 4],
			"speed": 1e9,
			"link_bandwidth": 1.25e8, "link_latency": 2e-5,
			"backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6
		}`,
	}
	out := make(map[string]*platform.Spec, len(specs))
	for name, js := range specs {
		spec, err := platform.ReadSpec(strings.NewReader(js))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = spec
	}
	return out
}

// TestTopologySchedulerBackendParity replays the same workload on every zoo
// topology under both backends and requires the result — simulated time,
// action count, and every kernel counter — to equal what the goroutine
// scheduler recorded for it before that scheduler was deleted.
func TestTopologySchedulerBackendParity(t *testing.T) {
	golden := map[string]struct {
		time    float64
		actions int64
		engine  sim.Stats
	}{
		"dragonfly/smpi": {0.027701362, 12064, sim.Stats{ContextSwitches: 10544, TimersFired: 10528, CommsStarted: 9728, CommsCompleted: 9728, ShareRecomputes: 1823, Events: 1898, ComponentsResolved: 9728, FlowsResolved: 9728, MaxComponentFlows: 1}},
		"dragonfly/msg":  {0.06327347400000023, 12064, sim.Stats{ContextSwitches: 7178, TimersFired: 5632, CommsStarted: 3200, CommsCompleted: 3200, ShareRecomputes: 500, Events: 652, ComponentsResolved: 3200, FlowsResolved: 3200, MaxComponentFlows: 1}},
		"fattree/smpi":   {0.026485362000000116, 12064, sim.Stats{ContextSwitches: 10544, TimersFired: 10528, CommsStarted: 9728, CommsCompleted: 9728, ShareRecomputes: 1215, Events: 1266, ComponentsResolved: 9728, FlowsResolved: 9728, MaxComponentFlows: 1}},
		"fattree/msg":    {0.0628234740000002, 12064, sim.Stats{ContextSwitches: 7178, TimersFired: 5632, CommsStarted: 3200, CommsCompleted: 3200, ShareRecomputes: 400, Events: 552, ComponentsResolved: 3200, FlowsResolved: 3200, MaxComponentFlows: 1}},
		"torus/smpi":     {0.026789362000000178, 12064, sim.Stats{ContextSwitches: 10544, TimersFired: 10528, CommsStarted: 9728, CommsCompleted: 9728, ShareRecomputes: 1215, Events: 1266, ComponentsResolved: 9728, FlowsResolved: 9728, MaxComponentFlows: 1}},
		"torus/msg":      {0.06292347400000027, 12064, sim.Stats{ContextSwitches: 7178, TimersFired: 5632, CommsStarted: 3200, CommsCompleted: 3200, ShareRecomputes: 400, Events: 552, ComponentsResolved: 3200, FlowsResolved: 3200, MaxComponentFlows: 1}},
	}
	for name, spec := range topoSpecs(t) {
		for _, backend := range []string{"smpi", "msg"} {
			t.Run(name+"/"+backend, func(t *testing.T) {
				s := &Scenario{
					Name:     name,
					Platform: spec,
					Workload: &WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 16, Iterations: 2},
					Backend:  backend,
				}
				if backend == "msg" {
					s.MSG.RefLatency, s.MSG.RefBandwidth = 6.5e-5, 1.25e8
				}
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want := golden[name+"/"+backend]
				if res.SimulatedTime != want.time {
					t.Fatalf("simulated time %v, recorded %v", res.SimulatedTime, want.time)
				}
				if res.Actions != want.actions {
					t.Fatalf("actions %d, recorded %d", res.Actions, want.actions)
				}
				if res.Engine != want.engine {
					t.Fatalf("engine stats diverge:\n got:      %+v\n recorded: %+v", res.Engine, want.engine)
				}
			})
		}
	}
}

// TestTopologyRoutingModesDiverge pins that the dragonfly routing knob
// reaches the simulation: valiant detours cross more cable than minimal
// routes, so the predicted time must differ.
func TestTopologyRoutingModesDiverge(t *testing.T) {
	run := func(routing string) float64 {
		spec := &platform.Spec{
			Name: "df", Topology: "dragonfly",
			Groups: 4, RoutersPerGroup: 2, HostsPerRouter: 2,
			Routing: routing, Speed: 1e9,
			LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
			LocalBandwidth: 1.25e9, LocalLatency: 1e-6,
			GlobalBandwidth: 2.5e9, GlobalLatency: 1e-5,
		}
		s := &Scenario{
			Name:     "df-" + routing,
			Platform: spec,
			Workload: &WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 16, Iterations: 2},
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime
	}
	min, val := run("minimal"), run("valiant")
	if min == val {
		t.Fatalf("minimal and valiant routing predicted identical times (%v); routing knob ignored?", min)
	}
}

// TestTopologyRankCountMismatch: replaying more ranks than the derived
// shape provides fails at build time with the structured platform error.
func TestTopologyRankCountMismatch(t *testing.T) {
	spec := &platform.Spec{
		Name: "ft", Topology: "fattree", Radix: 2, Levels: 2, Hosts: 16,
		Speed: 1e9, LinkBandwidth: 1.25e8, BackboneBandwidth: 1.25e9,
	}
	s := &Scenario{
		Name:     "mismatch",
		Platform: spec,
		Workload: &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 16},
	}
	_, err := s.Run(context.Background())
	if err == nil {
		t.Fatal("expected rank-count mismatch error")
	}
	if !strings.Contains(err.Error(), `"hosts"`) {
		t.Fatalf("error %q does not name the hosts field", err)
	}
}
