package main

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"

	"tireplay"
)

// A workload is one seeded trace set replayed on one platform. The seed only
// perturbs compute volumes (as two acquisitions of the same run would
// differ), so every seed does the same amount of host work while the
// simulated schedules, and thus the flow overlaps the network model
// resolves, still differ.
type workload struct {
	platform tireplay.PlatformSpec
	backend  string
	// cache is the scenario's trace_cache: "on" replays the compiled TIB
	// binary, "off" re-parses the text trace on every replay.
	cache  string
	traces func() ([][]tireplay.Action, error)
}

// Every workload keeps a replay under about a tenth of a second, so a run
// takes hundreds of replays and dozens lie below its 10th percentile.
var workloads = map[string]workload{
	// LU's pipelined wavefront: many small point-to-point messages on a
	// full-bisection crossbar. A max-min re-solve touches about two flows,
	// so host time goes to TIB decoding, lowering and the scheduler.
	"lu": {
		platform: tireplay.PlatformSpec{
			Name: "xbar64", Topology: "crossbar", Hosts: 64, Speed: 2e9,
			LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		},
		backend: "smpi",
		cache:   "on",
		traces: func() ([][]tireplay.Action, error) {
			w, err := tireplay.NewLU(tireplay.ClassA, 64, 2)
			if err != nil {
				return nil, err
			}
			return tireplay.Materialize(tireplay.PerfectTrace(w))
		},
	},
	// Uneven alltoallv exchanges on an adaptively routed dragonfly: global
	// cables fuse many concurrent flows into large max-min components, so
	// host time goes to the network model's sharing solver.
	"alltoallv": {
		platform: tireplay.PlatformSpec{
			Name: "df64", Topology: "dragonfly",
			Groups: 4, RoutersPerGroup: 4, HostsPerRouter: 4, Routing: "adaptive",
			Speed: 2e9, LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
			LocalBandwidth: 5e9, LocalLatency: 2e-6,
			GlobalBandwidth: 1e10, GlobalLatency: 1e-5,
		},
		backend: "smpi",
		cache:   "on",
		traces: func() ([][]tireplay.Action, error) {
			return tireplay.SyntheticMixTraces("alltoallv", 64, 2, 65536)
		},
	},
	// CG replayed by the legacy MSG backend straight from text on a torus:
	// every replay re-parses the trace, so the text parser is on the
	// critical path next to MSG's point-to-point collectives.
	"cg_text": {
		platform: tireplay.PlatformSpec{
			Name: "torus32", Topology: "torus", TorusDims: []int{8, 4},
			Speed: 2e9, LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
			BackboneBandwidth: 5e9, BackboneLatency: 2e-6,
		},
		backend: "msg",
		cache:   "off",
		traces: func() ([][]tireplay.Action, error) {
			w, err := tireplay.NewCG(tireplay.ClassB, 32, 4)
			if err != nil {
				return nil, err
			}
			return tireplay.Materialize(tireplay.PerfectTrace(w))
		},
	},
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// jitter scales every compute volume by a seeded factor in [0.9, 1.1) and
// rounds it to whole instructions, the precision of the text format, and
// returns the largest per-rank instruction total.
func jitter(perRank [][]tireplay.Action, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 0x7469726570)) // "tirep"
	maxTotal := 0.0
	for _, actions := range perRank {
		total := 0.0
		for i := range actions {
			if actions[i].Instructions > 0 {
				actions[i].Instructions = math.Round(actions[i].Instructions * (0.9 + 0.2*rng.Float64()))
				total += actions[i].Instructions
			}
		}
		maxTotal = max(maxTotal, total)
	}
	return maxTotal
}

func countActions(perRank [][]tireplay.Action) int64 {
	var n int64
	for _, a := range perRank {
		n += int64(len(a))
	}
	return n
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return w, nil
}
