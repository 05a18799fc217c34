// Command acquire emulates trace-acquisition runs on the ground-truth
// clusters and reports what the paper's Tables 1/2 and Figures 1/2/4/5
// measure: the run-time overhead of instrumentation and the inflation of
// the hardware instruction counters.
//
// Usage:
//
//	acquire -cluster bordereau -class B -np 8 [-iters 25] [-O3]
package main

import (
	"flag"
	"fmt"
	"os"

	"tireplay"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/stats"
)

func main() {
	clusterName := flag.String("cluster", "bordereau", "bordereau or graphene")
	classStr := flag.String("class", "B", "NPB class")
	np := flag.Int("np", 8, "processes")
	iters := flag.Int("iters", 25, "SSOR iterations")
	o3 := flag.Bool("O3", false, "use the -O3 build")
	flag.Parse()

	cluster, err := ground.Lookup(*clusterName)
	fatal(err)
	spec := tireplay.WorkloadSpec{Benchmark: "lu", Class: *classStr, Procs: *np, Iterations: *iters}
	lu, err := spec.Build()
	fatal(err)
	class := tireplay.NPBClass((*classStr)[0]) // validated by Build
	compile := tireplay.CompileO0
	if *o3 {
		compile = tireplay.CompileO3
	}

	fmt.Printf("emulating LU %s-%d on %s (%d iterations, %v)\n",
		string(class), *np, cluster.Name, *iters, compile)

	times := map[tireplay.InstrumentationMode]float64{}
	for _, mode := range []tireplay.InstrumentationMode{
		tireplay.Uninstrumented, tireplay.CoarseInstrumentation,
		tireplay.MinimalInstrumentation, tireplay.FineInstrumentation,
	} {
		run, err := cluster.Run(lu, cluster.InstrConfig(mode, compile, class))
		fatal(err)
		times[mode] = run.Time
		fmt.Printf("  %-8s %10.3f s", mode, run.Time)
		if mode != tireplay.Uninstrumented {
			fmt.Printf("  (overhead %+.1f%%)", 100*(run.Time/times[tireplay.Uninstrumented]-1))
		}
		fmt.Println()
	}

	// Counter discrepancies vs the coarse reference.
	ref, err := instrument.Counters(lu, cluster.InstrConfig(tireplay.CoarseInstrumentation, compile, class))
	fatal(err)
	for _, mode := range []tireplay.InstrumentationMode{
		tireplay.MinimalInstrumentation, tireplay.FineInstrumentation,
	} {
		counters, err := instrument.Counters(lu, cluster.InstrConfig(mode, compile, class))
		fatal(err)
		diffs := make([]float64, len(counters))
		for i := range counters {
			diffs[i] = stats.RelErr(counters[i], ref[i])
		}
		sum, err := stats.Summarize(diffs)
		fatal(err)
		fmt.Printf("counter inflation, %s vs coarse: %s %%\n", mode, sum)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "acquire:", err)
		os.Exit(1)
	}
}
