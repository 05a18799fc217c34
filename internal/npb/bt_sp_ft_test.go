package npb

import (
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
)

func smokePlatform(t *testing.T, n int) *platform.Platform {
	t.Helper()
	spec := platform.Spec{
		Name: "smoke", Topology: "flat", Hosts: n, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The new workloads must replay to completion — the waitany/waitsome drains
// and vector collectives included — with the simulated times, action counts
// and kernel counters the goroutine scheduler recorded for them before that
// scheduler was deleted.
func TestNewWorkloadsReplayBothModes(t *testing.T) {
	plat := smokePlatform(t, 9)
	for _, tc := range []struct {
		name    string
		mk      func() (Workload, error)
		time    float64
		actions int64
		engine  sim.Stats
	}{
		{"bt-4", func() (Workload, error) { return NewBT(ClassS, 4, 2) },
			0.0008131679999999996, 180, sim.Stats{ContextSwitches: 87, TimersFired: 112, CommsStarted: 56, CommsCompleted: 56, ShareRecomputes: 47, Events: 90, ComponentsResolved: 29, FlowsResolved: 63, MaxComponentFlows: 16}},
		{"sp-9", func() (Workload, error) { return NewSP(ClassS, 9, 2) },
			0.0006728914999999997, 681, sim.Stats{ContextSwitches: 363, TimersFired: 406, CommsStarted: 136, CommsCompleted: 136, ShareRecomputes: 92, Events: 217, ComponentsResolved: 77, FlowsResolved: 210, MaxComponentFlows: 36}},
		// 64 % 5 != 0: uneven transpose.
		{"ft-5", func() (Workload, error) { return NewFT(ClassS, 5, 2) },
			0.015532980000000004, 55, sim.Stats{ContextSwitches: 108, TimersFired: 96, CommsStarted: 76, CommsCompleted: 76, ShareRecomputes: 77, Events: 88, ComponentsResolved: 53, FlowsResolved: 126, MaxComponentFlows: 5}},
		{"bt-1", func() (Workload, error) { return NewBT(ClassS, 1, 2) },
			0.001181952, 17, sim.Stats{ContextSwitches: 15, TimersFired: 14, Events: 14}},
		{"ft-1", func() (Workload, error) { return NewFT(ClassS, 1, 2) },
			0.060817408, 9, sim.Stats{ContextSwitches: 5, TimersFired: 4, Events: 4}},
	} {
		w, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Replay(AsProvider(w), plat, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.SimulatedTime != tc.time || res.Actions != tc.actions || res.Engine != tc.engine {
			t.Fatalf("%s: time %v, %d actions, %+v; recorded %v, %d actions, %+v",
				tc.name, res.SimulatedTime, res.Actions, res.Engine, tc.time, tc.actions, tc.engine)
		}
	}
}

func TestNewWorkloadConstructorsValidate(t *testing.T) {
	if _, err := NewBT(ClassS, 3, 1); err == nil {
		t.Fatal("BT accepted non-square process count")
	}
	if _, err := NewSP(ClassS, 5, 1); err == nil {
		t.Fatal("SP accepted non-square process count")
	}
	if _, err := NewFT(ClassS, 65, 1); err == nil {
		t.Fatal("FT accepted more processes than planes")
	}
	if _, err := NewFT(Class('X'), 4, 1); err == nil {
		t.Fatal("FT accepted unknown class")
	}
}

// BT/SP/FT must satisfy the cross-rank consistency the replay requires:
// matched sends/recvs and identical collective sequences. Replaying on the
// MSG backend (monolithic collectives with strict barrier synchronization)
// would hang on any mismatch; completing is the property.
func TestNewWorkloadsReplayOnMSG(t *testing.T) {
	plat := smokePlatform(t, 4)
	for _, mk := range []func() (Workload, error){
		func() (Workload, error) { return NewBT(ClassS, 4, 1) },
		func() (Workload, error) { return NewSP(ClassS, 4, 1) },
		func() (Workload, error) { return NewFT(ClassS, 3, 1) },
	} {
		w, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Backend: core.MSG}
		cfg.MSG.RefLatency = 1e-5
		cfg.MSG.RefBandwidth = 1e9
		if _, err := core.Replay(AsProvider(w), plat, cfg); err != nil {
			t.Fatalf("%s on msg: %v", w.Name(), err)
		}
	}
}
