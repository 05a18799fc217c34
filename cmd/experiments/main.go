// Command experiments reproduces the paper's evaluation: Tables 1-2 and
// Figures 1-7. Each experiment emulates the acquisition runs on the
// ground-truth cluster models, calibrates the simulator, replays the
// acquired traces, and prints rows comparable to the paper's.
//
// Usage:
//
//	experiments [-run all|table1|table2|fig1|fig2|fig3|fig4|fig5|fig6|fig7|sweep] \
//	    [-iters N] [-full] [-workers N]
//
// The sweep experiment replays the whole {LU, CG} x classes x procs x
// backend grid as one declarative sweep spec (base scenario + axes)
// streamed through the worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tireplay/internal/experiments"
	"tireplay/internal/ground"
)

func main() {
	runFlag := flag.String("run", "all", "experiment to run: all, table1, table2, fig1..fig7, ablation, memcpy, decoupling, efficiency, sweep")
	iters := flag.Int("iters", 25, "SSOR iterations per emulated run (reduced; times are scaled to the class itmax)")
	full := flag.Bool("full", false, "use the full NPB iteration counts (slow)")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = all CPUs)")
	flag.Parse()

	opt := experiments.Options{Iterations: *iters}
	if *full {
		opt.Iterations = 250
	}

	if err := run(*runFlag, opt, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(which string, opt experiments.Options, workers int) error {
	bordereau := ground.Bordereau()
	graphene := ground.Graphene()
	classes := experiments.StudyClasses
	all := which == "all"

	if all || which == "table1" {
		rows, err := experiments.TableOverhead(bordereau, classes, experiments.BordereauProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderOverhead(os.Stdout, "Table 1: instrumentation overhead on bordereau (old: fine,-O0 / new: minimal,-O3)", rows)
		fmt.Println()
	}
	if all || which == "table2" {
		rows, err := experiments.TableOverhead(graphene, classes, experiments.GrapheneProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderOverhead(os.Stdout, "Table 2: instrumentation overhead on graphene (old: fine,-O0 / new: minimal,-O3)", rows)
		fmt.Println()
	}
	if all || which == "fig1" {
		rows, err := experiments.FigureDiscrepancy(bordereau, experiments.OldPipeline, classes, experiments.BordereauProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderDiscrepancy(os.Stdout, "Figure 1: instruction-count difference, fine vs coarse (-O0), bordereau", rows)
		fmt.Println()
	}
	if all || which == "fig2" {
		rows, err := experiments.FigureDiscrepancy(graphene, experiments.OldPipeline, classes, experiments.GrapheneProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderDiscrepancy(os.Stdout, "Figure 2: instruction-count difference, fine vs coarse (-O0), graphene", rows)
		fmt.Println()
	}
	if all || which == "fig3" {
		rows, err := experiments.FigureAccuracy(bordereau, experiments.OldPipeline, classes, experiments.BordereauProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderAccuracy(os.Stdout, "Figure 3: accuracy of the FIRST implementation (fine,-O0,A-4,MSG), bordereau", rows)
		fmt.Println()
	}
	if all || which == "fig4" {
		rows, err := experiments.FigureDiscrepancy(bordereau, experiments.NewPipeline, classes, experiments.BordereauProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderDiscrepancy(os.Stdout, "Figure 4: instruction-count difference, minimal vs coarse (-O3), bordereau", rows)
		fmt.Println()
	}
	if all || which == "fig5" {
		rows, err := experiments.FigureDiscrepancy(graphene, experiments.NewPipeline, classes, experiments.GrapheneProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderDiscrepancy(os.Stdout, "Figure 5: instruction-count difference, minimal vs coarse (-O3), graphene", rows)
		fmt.Println()
	}
	if all || which == "fig6" {
		rows, err := experiments.FigureAccuracy(bordereau, experiments.NewPipeline, classes, experiments.BordereauProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderAccuracy(os.Stdout, "Figure 6: accuracy of the NEW implementation (minimal,-O3,cache-aware,SMPI), bordereau", rows)
		fmt.Println()
	}
	if all || which == "fig7" {
		rows, err := experiments.FigureAccuracy(graphene, experiments.NewPipeline, classes, experiments.GrapheneProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderAccuracy(os.Stdout, "Figure 7: accuracy of the NEW implementation (minimal,-O3,cache-aware,SMPI), graphene", rows)
		fmt.Println()
	}
	if all || which == "ablation" {
		rows, err := experiments.Ablation(bordereau, experiments.StudyClasses[0], []int{8, 64}, opt)
		if err != nil {
			return err
		}
		experiments.RenderAblation(os.Stdout, "Ablation (extension): contribution of each fix, LU class B on bordereau", rows)
		fmt.Println()
	}
	if all || which == "memcpy" {
		rows, err := experiments.FutureWorkMemcpy(graphene, classes, []int{8, 64, 128}, opt)
		if err != nil {
			return err
		}
		experiments.RenderAblation(os.Stdout, "Future work (Section 6): modelling the eager memcpy in the replay, graphene", rows)
		fmt.Println()
	}
	if all || which == "decoupling" {
		rows, err := experiments.Decoupling(graphene,
			[]*ground.Cluster{ground.Graphene(), ground.Bordereau()},
			experiments.StudyClasses[0], 32, opt)
		if err != nil {
			return err
		}
		experiments.RenderDecoupling(os.Stdout,
			"Decoupling (extension): B-32 trace acquired on different machines, replayed for graphene", rows)
		fmt.Println()
	}
	if all || which == "efficiency" {
		rows, err := experiments.Efficiency(graphene, experiments.StudyClasses[0], experiments.GrapheneProcs, opt)
		if err != nil {
			return err
		}
		experiments.RenderEfficiency(os.Stdout, "Efficiency (extension): replay cost per backend and scale, graphene platform", rows)
		fmt.Println()
	}
	if all || which == "sweep" {
		rows, err := experiments.Sweep(context.Background(), graphene,
			experiments.StudyClasses, experiments.GrapheneProcs, workers, opt,
			func(done, total int, name string) {
				fmt.Fprintf(os.Stderr, "sweep [%d/%d] %s\n", done, total, name)
			})
		if err != nil {
			return err
		}
		experiments.RenderSweep(os.Stdout,
			"Sweep (extension): {LU,CG} x classes x procs x backends batch on the worker pool, graphene platform", rows)
		fmt.Println()
	}
	if !all {
		switch which {
		case "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"ablation", "memcpy", "decoupling", "efficiency", "sweep":
		default:
			return fmt.Errorf("unknown experiment %q", which)
		}
	}
	return nil
}
