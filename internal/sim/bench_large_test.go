// Large-scale kernel benchmarks. They live in the external test package so
// they can drive the kernel through internal/mpi and internal/platform, the
// way real replays do.
package sim_test

import (
	"fmt"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/stats"
)

// alltoallSize returns a deterministic per-pair payload, jittered above the
// rendezvous threshold so flows desynchronize: every completion lands on its
// own event, which is the adversarial regime for the sharing solver (a
// synchronized alltoall batches whole rounds into single recomputes and
// hides the solver's scaling).
func alltoallSize(src, dst, ranks int) float64 {
	rng := stats.NewRNG(0xa2a).Fork(uint64(src*ranks + dst))
	return 65536 * (1 + rng.Float64())
}

// crossbar builds the full-bisection cluster the large benchmarks run on.
func crossbar(tb testing.TB, ranks int) *platform.Platform {
	tb.Helper()
	spec := platform.Spec{
		Name: "xbar", Topology: "crossbar", Hosts: ranks, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
	}
	plat, _, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return plat
}

// runLargeAlltoAll simulates a pairwise-exchange alltoall (the schedule of
// mpi.TaskRank.AllToAll, with heterogeneous payloads) on a full-bisection
// cluster and returns the end time and engine stats. Each rank is compiled,
// one exchange per feed call, into MPI_Sendrecv's isend + recv + wait.
func runLargeAlltoAll(tb testing.TB, ranks int, opts ...sim.Option) (float64, sim.Stats) {
	tb.Helper()
	plat := crossbar(tb, ranks)
	e := sim.NewEngine(plat, opts...)
	w, err := mpi.NewWorld(e, plat.Hosts(), mpi.ModelConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for rank := 0; rank < ranks; rank++ {
		me := rank
		tr := w.TaskRank(rank)
		i := 0
		w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
			if i++; i >= ranks {
				return false, nil
			}
			dst := (me + i) % ranks
			src := (me - i + ranks) % ranks
			tr.Isend(p, dst, alltoallSize(me, dst, ranks))
			tr.Recv(p, src)
			p.WaitPending()
			return true, nil
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return e.Now(), e.Stats()
}

// BenchmarkLargeAlltoAll measures the kernel hot paths at scale on a
// desynchronized alltoall. At 128/256 ranks it compares the incremental
// per-component sharing solver against the historical from-scratch pass (the
// flows-resolved metric shows why the gap widens: the incremental solver
// re-solves a near-constant handful of flows per recompute). At 1024 and
// 4096 ranks it measures the scheduler at scale: continuation machines need
// no per-rank stacks or handoffs, which is what lets the kernel reach
// thousands of ranks.
func BenchmarkLargeAlltoAll(b *testing.B) {
	for _, ranks := range []int{128, 256} {
		for _, mode := range []struct {
			name string
			opts []sim.Option
		}{
			{"incremental", nil},
			{"fromscratch", []sim.Option{sim.WithFromScratchSharing()}},
		} {
			b.Run(fmt.Sprintf("ranks=%d/%s", ranks, mode.name), func(b *testing.B) {
				var st sim.Stats
				for i := 0; i < b.N; i++ {
					_, st = runLargeAlltoAll(b, ranks, mode.opts...)
				}
				b.ReportMetric(float64(st.FlowsResolved)/float64(st.ShareRecomputes), "flows-resolved/recompute")
			})
		}
	}
	for _, ranks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d/continuation", ranks), func(b *testing.B) {
			var st sim.Stats
			for i := 0; i < b.N; i++ {
				_, st = runLargeAlltoAll(b, ranks)
			}
			b.ReportMetric(float64(st.ContextSwitches), "context-switches")
		})
	}
}

// alltoallvVols builds rank me's per-peer volume vector for the vector
// benchmark: deterministic, uneven (each pair its own multiple), and jittered
// above the rendezvous threshold so completions desynchronize.
func alltoallvVols(me, ranks int) []float64 {
	vols := make([]float64, ranks)
	for k := 0; k < ranks; k++ {
		if k == me {
			continue
		}
		rng := stats.NewRNG(0xa2a5).Fork(uint64(me*ranks + k))
		vols[k] = 65536 * (1 + rng.Float64()) * float64(1+(me*13+k*7)%4)
	}
	return vols
}

// runLargeAlltoAllV drives the real vector collective — the pairwise
// schedule mpi.TaskRank.AllToAllV lowers to, with per-peer volumes — and
// returns the end time and engine stats.
func runLargeAlltoAllV(tb testing.TB, ranks int) (float64, sim.Stats) {
	tb.Helper()
	plat := crossbar(tb, ranks)
	e := sim.NewEngine(plat)
	w, err := mpi.NewWorld(e, plat.Hosts(), mpi.ModelConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for rank := 0; rank < ranks; rank++ {
		me := rank
		tr := w.TaskRank(rank)
		done := false
		w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
			if done {
				return false, nil
			}
			done = true
			tr.AllToAllV(p, alltoallvVols(me, ranks))
			return true, nil
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return e.Now(), e.Stats()
}

// BenchmarkLargeAlltoAllV measures the vector collective at 256 ranks: 255
// desynchronized pairwise exchanges per rank, every one with its own
// payload — the transpose traffic FT-class replays put through the kernel,
// and a CI guard on the vector-collective hot path.
func BenchmarkLargeAlltoAllV(b *testing.B) {
	const ranks = 256
	b.Run(fmt.Sprintf("ranks=%d/continuation", ranks), func(b *testing.B) {
		var st sim.Stats
		for i := 0; i < b.N; i++ {
			_, st = runLargeAlltoAllV(b, ranks)
		}
		b.ReportMetric(float64(st.CommsCompleted), "comms")
	})
}

// recordedRun is an end time and the engine counters, as recorded from the
// goroutine-per-rank scheduler on the same workload before that scheduler
// was deleted: the continuation machines reproduced it bit for bit.
type recordedRun struct {
	ranks int
	end   float64
	stats sim.Stats
}

// TestLargeAlltoAllVSchedulersAgree is the correctness companion of the
// vector benchmark: it must reproduce the goroutine scheduler's result.
func TestLargeAlltoAllVSchedulersAgree(t *testing.T) {
	want := recordedRun{48, 0.011845898550212206, sim.Stats{ContextSwitches: 3437, TimersFired: 2256, CommsStarted: 2256, CommsCompleted: 2256, ShareRecomputes: 3266, Events: 3267, ComponentsResolved: 2256, FlowsResolved: 2256, MaxComponentFlows: 1}}
	if testing.Short() {
		want = recordedRun{16, 0.003940412477164212, sim.Stats{ContextSwitches: 387, TimersFired: 240, CommsStarted: 240, CommsCompleted: 240, ShareRecomputes: 333, Events: 334, ComponentsResolved: 240, FlowsResolved: 240, MaxComponentFlows: 1}}
	}
	end, st := runLargeAlltoAllV(t, want.ranks)
	if end != want.end || st != want.stats {
		t.Fatalf("got end %v, %+v\nrecorded end %v, %+v", end, st, want.end, want.stats)
	}
}

// TestLargeAlltoAllSchedulersAgree is the correctness companion of the
// scheduler benchmark: on the same workload it must reproduce the goroutine
// scheduler's end time and every engine counter.
func TestLargeAlltoAllSchedulersAgree(t *testing.T) {
	want := recordedRun{48, 0.004728047227183458, sim.Stats{ContextSwitches: 3444, TimersFired: 2256, CommsStarted: 2256, CommsCompleted: 2256, ShareRecomputes: 3236, Events: 3237, ComponentsResolved: 2256, FlowsResolved: 2256, MaxComponentFlows: 1}}
	if testing.Short() {
		want = recordedRun{16, 0.0015231143449905534, sim.Stats{ContextSwitches: 386, TimersFired: 240, CommsStarted: 240, CommsCompleted: 240, ShareRecomputes: 334, Events: 335, ComponentsResolved: 240, FlowsResolved: 240, MaxComponentFlows: 1}}
	}
	end, st := runLargeAlltoAll(t, want.ranks)
	if end != want.end || st != want.stats {
		t.Fatalf("got end %v, %+v\nrecorded end %v, %+v", end, st, want.end, want.stats)
	}
}

// TestLargeAlltoAllModesAgree is the scaled-down correctness companion of
// the benchmark: the incremental and from-scratch solvers must produce
// bit-identical engine end times on the benchmark workload.
func TestLargeAlltoAllModesAgree(t *testing.T) {
	ranks := 32
	if testing.Short() {
		ranks = 12
	}
	incEnd, incStats := runLargeAlltoAll(t, ranks)
	refEnd, refStats := runLargeAlltoAll(t, ranks, sim.WithFromScratchSharing())
	if incEnd != refEnd {
		t.Fatalf("end time %v (incremental) != %v (from-scratch)", incEnd, refEnd)
	}
	if incStats.CommsCompleted != refStats.CommsCompleted {
		t.Fatalf("comms %d != %d", incStats.CommsCompleted, refStats.CommsCompleted)
	}
	if incStats.FlowsResolved >= refStats.FlowsResolved {
		t.Fatalf("incremental resolved %d flows, from-scratch %d: expected strictly fewer",
			incStats.FlowsResolved, refStats.FlowsResolved)
	}
}
