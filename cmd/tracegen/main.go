// Command tracegen generates time-independent traces for NPB workload
// instances, either distortion-free ("perfect", what coarse counters would
// record) or as acquired through an instrumented run on one of the emulated
// clusters (inflated compute volumes).
//
// Usage:
//
//	tracegen -workload lu -class B -np 8 [-iters 250] [-o traces] [-prefix lu_b8]
//	    [-mode perfect|minimal|fine] [-cluster bordereau|graphene] [-O3]
//	    [-fold | -tib]
//
// With -mix, tracegen instead emits a synthetic trace exercising the
// extended action vocabulary (vector collectives, wait-any/wait-some) —
// deterministic, cross-rank consistent, and independent of any workload
// model:
//
//	tracegen -mix alltoallv -np 8 -iters 4 [-bytes 65536] [-o traces] [-tib]
//
// A flag the chosen mode does not read is an error, not a silent default:
// -cluster and -O3 under -mode perfect, the workload flags (-workload,
// -class, -mode, -cluster, -O3) under -mix, -bytes without -mix, and
// -fold with -tib.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"tireplay"
	"tireplay/internal/ground"
)

func main() {
	workload := flag.String("workload", "lu", "workload: lu, cg, ep, mg, bt, sp, or ft")
	classStr := flag.String("class", "B", "NPB class: S, W, A, B, C, D")
	np := flag.Int("np", 8, "number of processes (power of two)")
	iters := flag.Int("iters", 0, "iterations (0 = class default)")
	outDir := flag.String("o", "traces", "output directory")
	prefix := flag.String("prefix", "", "file prefix (default <workload>_<class><np>)")
	mode := flag.String("mode", "perfect", "acquisition mode: perfect, minimal, fine")
	clusterName := flag.String("cluster", "graphene", "emulated cluster for instrumented acquisition")
	o3 := flag.Bool("O3", false, "acquire from an -O3 build")
	fold := flag.Bool("fold", false, "write loop-folded trace files (lossless; replayer expands them)")
	tib := flag.Bool("tib", false, "write one compiled .tib binary trace instead of text files")
	mix := flag.String("mix", "", "emit a synthetic mix instead of a workload trace: one of "+fmt.Sprint(tireplay.SyntheticTraceMixes()))
	mixBytes := flag.Float64("bytes", 65536, "with -mix: base payload in bytes (the mixes scale it unevenly)")
	flag.Parse()

	if *tib {
		rejectIgnored("with -tib", "fold")
	}
	if *mix != "" {
		rejectIgnored("with -mix", "workload", "class", "mode", "cluster", "O3")
		mixIters := *iters
		if mixIters == 0 {
			mixIters = 4
		}
		perRank, err := tireplay.SyntheticMixTraces(*mix, *np, mixIters, *mixBytes)
		fatal(err)
		name := *prefix
		if name == "" {
			name = fmt.Sprintf("mix_%s%d", *mix, *np)
		}
		write(perRank, name, *outDir, *tib, *fold)
		return
	}

	rejectIgnored("without -mix", "bytes")
	spec := tireplay.WorkloadSpec{Benchmark: *workload, Class: *classStr, Procs: *np, Iterations: *iters}
	w, err := spec.Build()
	fatal(err)
	class := tireplay.NPBClass((*classStr)[0]) // validated by Build

	var prov tireplay.TraceProvider
	switch *mode {
	case "perfect":
		rejectIgnored("with -mode perfect", "cluster", "O3")
		prov = tireplay.PerfectTrace(w)
	case "minimal", "fine":
		cluster, err := ground.Lookup(*clusterName)
		fatal(err)
		imode := tireplay.MinimalInstrumentation
		if *mode == "fine" {
			imode = tireplay.FineInstrumentation
		}
		compile := tireplay.CompileO0
		if *o3 {
			compile = tireplay.CompileO3
		}
		prov, err = tireplay.AcquiredTrace(w, cluster.InstrConfig(imode, compile, class))
		fatal(err)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	name := *prefix
	if name == "" {
		name = fmt.Sprintf("%s_%s%d", strings.ToLower(*workload), string(class), *np)
	}
	perRank, err := tireplay.Materialize(prov)
	fatal(err)
	write(perRank, name, *outDir, *tib, *fold)
}

// write stores a materialized trace set in the chosen layout and prints its
// volume summary.
func write(perRank [][]tireplay.Action, name, outDir string, tib, fold bool) {
	var desc string
	var err error
	switch {
	case tib:
		// A .tib is self-contained (rank count and per-rank index in the
		// header) and accepted directly by tireplay -desc.
		fatal(os.MkdirAll(outDir, 0o755))
		desc = filepath.Join(outDir, name+".tib")
		err = tireplay.WriteTIB(desc, perRank)
	case fold:
		desc, err = tireplay.WriteFoldedTraces(outDir, name, perRank)
	default:
		desc, err = tireplay.WriteTraces(outDir, name, perRank)
	}
	fatal(err)

	stats, err := tireplay.CollectTraceStats(tireplay.TracesInMemory(perRank), 65536)
	fatal(err)
	fmt.Printf("wrote %s (%d ranks)\n", desc, stats.Ranks)
	fmt.Printf("  instructions: %.4g total\n", stats.Instructions)
	fmt.Printf("  p2p: %d messages, %.4g bytes (%d eager < 64 KiB)\n",
		stats.P2PMessages, stats.P2PBytes, stats.EagerMessages)
}

// rejectIgnored exits naming the first of names set on the command line:
// the chosen mode (why) does not read them, and a typo or a request that
// silently fell back to the default would go unnoticed.
func rejectIgnored(why string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			fatal(fmt.Errorf("-%s has no effect %s", f.Name, why))
		}
	})
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
