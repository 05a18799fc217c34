// Classroom: "students without access to a parallel platform could execute
// applications in simulation on a single node as a way to learn the
// principles of parallel programming" (paper, Section 1). This example
// studies the strong scaling of two very different applications — LU's
// tightly coupled wavefront vs CG's reduction-heavy iterations — entirely
// on the local machine, and also shows how the legacy MSG backend distorts
// the picture.
//
// The whole study is one declarative scenario batch: {LU, CG} x process
// counts plus the two backend variants, replayed concurrently on a worker
// pool.
package main

import (
	"context"
	"fmt"
	"log"

	"tireplay"
)

func platSpec(n int) *tireplay.PlatformSpec {
	return &tireplay.PlatformSpec{
		Name: "class", Topology: "flat", Hosts: n, Speed: 2.5e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2.5e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

func main() {
	fmt.Println("Strong scaling study, simulated on one node")
	fmt.Println()

	// Lesson one: strong scaling. Declare the {LU, CG} x procs grid.
	counts := []int{1, 2, 4, 8, 16, 32}
	var scenarios []*tireplay.Scenario
	for _, n := range counts {
		scenarios = append(scenarios,
			&tireplay.Scenario{
				Name:     fmt.Sprintf("lu-%d", n),
				Platform: platSpec(n),
				Workload: &tireplay.WorkloadSpec{Benchmark: "lu", Class: "A", Procs: n, Iterations: 10},
			},
			&tireplay.Scenario{
				Name:     fmt.Sprintf("cg-%d", n),
				Platform: platSpec(n),
				Workload: &tireplay.WorkloadSpec{Benchmark: "cg", Class: "A", Procs: n, Iterations: 2},
			})
	}
	// Lesson two: the backend matters. The same LU A-16 workload under the
	// accurate SMPI backend and the crude MSG prototype, in the same batch.
	luA16 := &tireplay.WorkloadSpec{Benchmark: "lu", Class: "A", Procs: 16, Iterations: 10}
	scenarios = append(scenarios,
		&tireplay.Scenario{
			Name: "lu-16-smpi", Platform: platSpec(16), Workload: luA16,
			Backend: "smpi",
		},
		&tireplay.Scenario{
			Name: "lu-16-msg", Platform: platSpec(16), Workload: luA16,
			Backend: "msg",
			MSG:     tireplay.MSGPrototypeConfig(),
		})

	byName := make(map[string]*tireplay.ReplayResult, len(scenarios))
	for r := range tireplay.RunScenarios(context.Background(), scenarios, 4) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		byName[r.Scenario.Name] = r.Replay
	}

	fmt.Printf("%6s | %12s %10s | %12s %10s\n", "procs", "LU A (s)", "speedup", "CG A (s)", "speedup")
	fmt.Println("--------------------------------------------------------------")
	luBase := byName["lu-1"].SimulatedTime
	cgBase := byName["cg-1"].SimulatedTime
	for _, n := range counts {
		lu := byName[fmt.Sprintf("lu-%d", n)].SimulatedTime
		cg := byName[fmt.Sprintf("cg-%d", n)].SimulatedTime
		fmt.Printf("%6d | %12.3f %9.2fx | %12.3f %9.2fx\n",
			n, lu, luBase/lu, cg, cgBase/cg)
	}

	fmt.Println()
	smpi := byName["lu-16-smpi"].SimulatedTime
	msg := byName["lu-16-msg"].SimulatedTime
	fmt.Printf("same LU A-16 trace: SMPI backend %.3f s, legacy MSG backend %.3f s (%+.1f%%)\n",
		smpi, msg, 100*(msg-smpi)/smpi)
	fmt.Println("the MSG prototype cannot model eager-mode overlap, so it overestimates")
}
