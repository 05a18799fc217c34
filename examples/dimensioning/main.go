// Dimensioning: the use case the paper's introduction motivates — "when a
// platform is yet to be specified and purchased, simulations can be used to
// determine a cost-effective hardware configuration appropriate for the
// expected application workload". One LU C-32 workload is replayed on a
// grid of hypothetical platforms (CPU speed x network generation) to find
// the cheapest configuration meeting a time budget.
//
// The grid is one declarative Sweep — a base scenario plus a network axis
// and a CPU axis — instead of hand-written nested loops. Results stream in
// as each candidate's replay completes, and a JSONL sink could persist
// them; here we collect and rank them.
package main

import (
	"context"
	"fmt"
	"log"

	"tireplay"
)

const (
	procs      = 32
	iters      = 10
	timeBudget = 4.0 // seconds, for the reduced-iteration instance
)

// Per-node prices (arbitrary units), keyed by the axis value labels.
var (
	networkPrice = map[string]float64{"1 GbE": 1.0, "10 GbE": 2.5, "IB QDR": 4.0}
	cpuPrice     = map[string]float64{"2.0 GHz": 3, "2.6 GHz": 4, "3.3 GHz": 6}
)

func main() {
	// The candidate grid: every network generation crossed with every CPU
	// speed, declared as two sweep axes over one base scenario.
	sw := &tireplay.Sweep{
		Name: "dimensioning",
		Base: tireplay.Scenario{
			Platform: &tireplay.PlatformSpec{
				Name: "candidate", Topology: "flat", Hosts: procs, Speed: 2.0e9,
				LinkBandwidth: 1.25e8, LinkLatency: 3.0e-5,
				BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
			},
			Workload: &tireplay.WorkloadSpec{
				Benchmark: "lu", Class: "C", Procs: procs, Iterations: iters,
			},
		},
		NameFormat: "{network} + {cpu}",
		Axes: []tireplay.SweepAxis{
			{Name: "network", Values: []any{
				map[string]any{"platform.link_bandwidth": 1.25e8, "platform.link_latency": 3.0e-5, "platform.backbone_bandwidth": 1.25e9},
				map[string]any{"platform.link_bandwidth": 1.25e9, "platform.link_latency": 1.2e-5, "platform.backbone_bandwidth": 1.25e10},
				map[string]any{"platform.link_bandwidth": 4.0e9, "platform.link_latency": 2.0e-6, "platform.backbone_bandwidth": 4.0e10},
			}, Labels: []string{"1 GbE", "10 GbE", "IB QDR"}},
			{Name: "cpu", Path: "platform.speed", Values: []any{2.0e9, 2.6e9, 3.3e9},
				Labels: []string{"2.0 GHz", "2.6 GHz", "3.3 GHz"}},
		},
	}

	// Replay the grid on 4 workers; Collect returns results in grid order.
	results, err := tireplay.CollectSweep(context.Background(), sw, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("LU C-%d, %d iterations, budget %.1f s (grid of %d candidates on 4 workers)\n\n",
		procs, iters, timeBudget, len(results))
	fmt.Printf("%-10s | %-8s | %9s | %7s | %s\n", "network", "cpu", "predicted", "price", "verdict")
	fmt.Println("------------------------------------------------------------")

	bestPrice, bestDesc := 0.0, ""
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		network := r.Point.Labels["network"]
		cpu := r.Point.Labels["cpu"]
		price := procs * (networkPrice[network] + cpuPrice[cpu])
		verdict := "over budget"
		if r.Replay.SimulatedTime <= timeBudget {
			verdict = "OK"
			if bestDesc == "" || price < bestPrice {
				bestPrice, bestDesc = price, r.Point.Scenario.Name
			}
		}
		fmt.Printf("%-10s | %-8s | %8.2fs | %7.0f | %s\n",
			network, cpu, r.Replay.SimulatedTime, price, verdict)
	}
	if bestDesc == "" {
		fmt.Println("\nno configuration meets the budget")
		return
	}
	fmt.Printf("\ncheapest configuration within budget: %s (price %.0f)\n", bestDesc, bestPrice)
}
