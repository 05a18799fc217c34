// Topology dimensioning: the purchase question the topology zoo exists to
// answer — for a fixed 64-node budget, does the expected workload run
// faster on a fat tree or on a dragonfly, and does the dragonfly need
// Valiant spreading? Each candidate interconnect is one whole-platform
// value on a single sweep axis, so the comparison is pure configuration:
// same workload, same NIC speeds, different "topology" stanza in the
// platform spec.
package main

import (
	"context"
	"fmt"
	"log"

	"tireplay"
)

const procs = 64

func main() {
	// Shared NIC parameters; only the interconnect stanza varies.
	nic := map[string]any{
		"platform.speed":          2.0e9,
		"platform.link_bandwidth": 1.25e9,
		"platform.link_latency":   1.0e-6,
	}

	// The candidates, each a whole "platform" object: a 2-level radix-8
	// fat tree, a 4x4x4 dragonfly routed minimally and adaptively, and an
	// 8x8 torus as the low-cable-count baseline.
	candidates := []struct {
		label    string
		cables   int // switch-to-switch cables, the cost driver
		platform map[string]any
	}{
		{"fat tree 8-ary 2-tree", 2 * procs, map[string]any{
			"name": "ft", "topology": "fattree", "radix": 8, "levels": 2,
			"backbone_bandwidth": 5.0e9, "backbone_latency": 2.0e-6,
		}},
		{"dragonfly 4x4x4 minimal", 4*4*3 + 4*3, map[string]any{
			"name": "df-min", "topology": "dragonfly",
			"groups": 4, "routers_per_group": 4, "hosts_per_router": 4,
			"routing":         "minimal",
			"local_bandwidth": 5.0e9, "local_latency": 2.0e-6,
			"global_bandwidth": 1.0e10, "global_latency": 1.0e-5,
		}},
		{"dragonfly 4x4x4 adaptive", 4*4*3 + 4*3, map[string]any{
			"name": "df-ad", "topology": "dragonfly",
			"groups": 4, "routers_per_group": 4, "hosts_per_router": 4,
			"routing":         "adaptive",
			"local_bandwidth": 5.0e9, "local_latency": 2.0e-6,
			"global_bandwidth": 1.0e10, "global_latency": 1.0e-5,
		}},
		{"torus 8x8", 2 * 2 * procs, map[string]any{
			"name": "tor", "topology": "torus", "torus_dims": []any{8, 8},
			"backbone_bandwidth": 5.0e9, "backbone_latency": 2.0e-6,
		}},
	}

	values := make([]any, len(candidates))
	labels := make([]string, len(candidates))
	for i, c := range candidates {
		v := map[string]any{"platform": c.platform}
		for k, nv := range nic {
			v[k] = nv
		}
		values[i] = v
		labels[i] = c.label
	}

	sw := &tireplay.Sweep{
		Name: "topologies",
		Base: tireplay.Scenario{
			// The base platform is immediately overridden by the axis; it
			// only has to be valid.
			Platform: &tireplay.PlatformSpec{
				Name: "base", Topology: "crossbar", Hosts: procs, Speed: 2.0e9,
				LinkBandwidth: 1.25e9, LinkLatency: 1.0e-6,
			},
			Workload: &tireplay.WorkloadSpec{
				Benchmark: "cg", Class: "A", Procs: procs, Iterations: 8,
			},
		},
		NameFormat: "{interconnect}",
		Axes: []tireplay.SweepAxis{
			{Name: "interconnect", Values: values, Labels: labels},
		},
	}

	results, err := tireplay.CollectSweep(context.Background(), sw, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("CG A-%d on 64-node interconnect candidates\n\n", procs)
	fmt.Printf("%-26s | %9s | %6s | %s\n", "interconnect", "predicted", "cables", "s*cables")
	fmt.Println("-------------------------------------------------------------")
	best, bestScore := "", 0.0
	for i, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		// Crude cost-effectiveness: predicted seconds times cable count.
		score := r.Replay.SimulatedTime * float64(candidates[i].cables)
		fmt.Printf("%-26s | %8.3fs | %6d | %8.1f\n",
			candidates[i].label, r.Replay.SimulatedTime, candidates[i].cables, score)
		if best == "" || score < bestScore {
			best, bestScore = candidates[i].label, score
		}
	}
	fmt.Printf("\nmost cable-effective interconnect: %s\n", best)
}
