package runner

import (
	"context"
	"errors"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/scenario"
	"tireplay/internal/trace"
)

func flatSpec(hosts int) *platform.Spec {
	return &platform.Spec{
		Name: "test", Topology: "flat", Hosts: hosts, Speed: 1e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

// run drains Stream into a slice in input order, placing each result by
// its Index.
func run(ctx context.Context, scenarios []*scenario.Scenario, workers int) []Result {
	results := make([]Result, len(scenarios))
	for r := range Stream(ctx, scenarios, workers) {
		results[r.Index] = r
	}
	return results
}

// sweep builds the acceptance-criteria batch: {LU, CG} x {A, B} x {8, 16}
// ranks = 8 scenarios, alternating backends.
func sweep(t *testing.T) []*scenario.Scenario {
	t.Helper()
	var out []*scenario.Scenario
	for _, bench := range []string{"lu", "cg"} {
		for _, class := range []string{"A", "B"} {
			for _, procs := range []int{8, 16} {
				out = append(out, &scenario.Scenario{
					Name:     bench + "-" + class,
					Platform: flatSpec(procs),
					Workload: &scenario.WorkloadSpec{
						Benchmark: bench, Class: class, Procs: procs, Iterations: 3,
					},
				})
			}
		}
	}
	if len(out) < 8 {
		t.Fatalf("sweep has %d scenarios, want >= 8", len(out))
	}
	return out
}

// TestParallelMatchesSequentialReplay checks the batch runner with 4
// workers produces the same SimulatedTime per scenario as direct sequential
// core.Replay calls.
func TestParallelMatchesSequentialReplay(t *testing.T) {
	scenarios := sweep(t)

	// Sequential reference, straight through the low-level API.
	want := make([]float64, len(scenarios))
	for i, s := range scenarios {
		w, err := s.Workload.Build()
		if err != nil {
			t.Fatal(err)
		}
		plat, _, err := s.Platform.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Replay(npb.AsProvider(w), plat, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.SimulatedTime
	}

	for i, r := range run(context.Background(), scenarios, 4) {
		if r.Err != nil {
			t.Fatalf("scenario %d (%s): %v", i, scenarios[i].Name, r.Err)
		}
		if r.Index != i || r.Scenario != scenarios[i] {
			t.Fatalf("result %d misordered: index %d", i, r.Index)
		}
		if r.Replay.SimulatedTime != want[i] {
			t.Fatalf("scenario %d (%s): parallel SimulatedTime %v != sequential %v",
				i, scenarios[i].Name, r.Replay.SimulatedTime, want[i])
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts re-runs the same batch at several
// pool sizes; per-scenario results must be identical.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	scenarios := sweep(t)
	base := run(context.Background(), scenarios, 1)
	for _, workers := range []int{2, 4, 16} {
		results := run(context.Background(), scenarios, workers)
		for i := range results {
			if results[i].Err != nil {
				t.Fatalf("workers=%d scenario %d: %v", workers, i, results[i].Err)
			}
			if results[i].Replay.SimulatedTime != base[i].Replay.SimulatedTime {
				t.Fatalf("workers=%d scenario %d: SimulatedTime %v != %v",
					workers, i, results[i].Replay.SimulatedTime, base[i].Replay.SimulatedTime)
			}
			if results[i].Replay.Actions != base[i].Replay.Actions {
				t.Fatalf("workers=%d scenario %d: Actions %d != %d",
					workers, i, results[i].Replay.Actions, base[i].Replay.Actions)
			}
		}
	}
}

// TestErrorIsolation checks a failing scenario doesn't abort the others.
func TestErrorIsolation(t *testing.T) {
	good := func() *scenario.Scenario {
		return &scenario.Scenario{
			Platform: flatSpec(4),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4, Iterations: 2},
		}
	}
	// Malformed trace: a wait with no outstanding request.
	desc, err := trace.WriteSet(t.TempDir(), "bad", [][]trace.Action{
		{{Rank: 0, Kind: trace.Wait, Peer: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := &scenario.Scenario{Platform: flatSpec(1), TraceDesc: desc}
	scenarios := []*scenario.Scenario{good(), bad, good()}
	results := run(context.Background(), scenarios, 2)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good scenarios failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("malformed scenario did not fail")
	}
	if !errors.Is(results[1].Err, core.ErrNoOutstandingRequest) {
		t.Fatalf("error %v does not wrap ErrNoOutstandingRequest", results[1].Err)
	}
	var te *core.TraceError
	if !errors.As(results[1].Err, &te) {
		t.Fatalf("error %v is not a *TraceError", results[1].Err)
	}
}

// TestCancellationMidBatch cancels after the first completion; later
// scenarios must be skipped with the context error.
func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var scenarios []*scenario.Scenario
	for i := 0; i < 12; i++ {
		scenarios = append(scenarios, &scenario.Scenario{
			Platform: flatSpec(4),
			Workload: &scenario.WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 4, Iterations: 2},
		})
	}

	ran, skipped := 0, 0
	for r := range Stream(ctx, scenarios, 1) {
		cancel()
		switch {
		case r.Err == nil && r.Replay != nil:
			ran++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("scenario %d: unexpected state (replay=%v err=%v)", r.Index, r.Replay, r.Err)
		}
	}
	if ran == 0 {
		t.Fatal("no scenario completed before cancellation")
	}
	if skipped == 0 {
		t.Fatal("no scenario was skipped after cancellation")
	}
	if ran+skipped != len(scenarios) {
		t.Fatalf("ran %d + skipped %d != %d", ran, skipped, len(scenarios))
	}
}

// TestStreamDeliversAllResults checks the streaming core yields exactly
// one terminal result per scenario, in completion order, covering every
// index.
func TestStreamDeliversAllResults(t *testing.T) {
	scenarios := sweep(t)
	seen := make(map[int]int)
	for r := range Stream(context.Background(), scenarios, 4) {
		seen[r.Index]++
		if r.Err != nil {
			t.Fatalf("scenario %d: %v", r.Index, r.Err)
		}
		if r.Replay == nil || r.Replay.SimulatedTime <= 0 {
			t.Fatalf("scenario %d: degenerate replay %+v", r.Index, r.Replay)
		}
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("stream yielded %d distinct indexes, want %d", len(seen), len(scenarios))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d yielded %d times", i, n)
		}
	}
}

// TestStreamEarlyBreakStopsPool breaks out of the stream after the first
// result; the pool must shut down without leaking goroutines (the race
// detector plus -timeout guard the rest).
func TestStreamEarlyBreakStopsPool(t *testing.T) {
	scenarios := sweep(t)
	got := 0
	for range Stream(context.Background(), scenarios, 2) {
		got++
		break
	}
	if got != 1 {
		t.Fatalf("consumed %d results, want 1", got)
	}
}

// TestCancellationReportingConsistent is the regression test for
// cancellation reporting: under cancellation at arbitrary points, every
// scenario must get exactly one terminal result, and skipped results must
// carry the context's error.
func TestCancellationReportingConsistent(t *testing.T) {
	mkBatch := func(n int) []*scenario.Scenario {
		var out []*scenario.Scenario
		for i := 0; i < n; i++ {
			out = append(out, &scenario.Scenario{
				Platform: flatSpec(2),
				Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 2},
			})
		}
		return out
	}
	const n = 16
	for round := 0; round < 8; round++ {
		cancelAfter := round % (n / 2) // vary the cancellation point
		ctx, cancel := context.WithCancel(context.Background())

		perScenario := make([]int, n)
		finished, skipped := 0, 0
		for r := range Stream(ctx, mkBatch(n), 3) {
			finished++
			perScenario[r.Index]++
			switch {
			case r.Err == nil && r.Replay != nil:
			case r.Replay == nil && errors.Is(r.Err, context.Canceled):
				skipped++
			default:
				t.Fatalf("round %d: scenario %d inconsistent (replay=%v err=%v)",
					round, r.Index, r.Replay, r.Err)
			}
			if finished == cancelAfter+1 {
				cancel()
			}
		}
		cancel()
		for i, c := range perScenario {
			if c != 1 {
				t.Fatalf("round %d: scenario %d got %d results", round, i, c)
			}
		}
		if skipped == 0 {
			t.Fatalf("round %d: cancellation after %d completions skipped nothing", round, cancelAfter)
		}
	}
}

// TestEmptyBatch returns immediately.
func TestEmptyBatch(t *testing.T) {
	got := 0
	for range Stream(context.Background(), nil, 4) {
		got++
	}
	if got != 0 {
		t.Fatalf("got %d results for empty batch", got)
	}
}

// TestInvalidScenarioReported checks Validate failures land in the Result.
func TestInvalidScenarioReported(t *testing.T) {
	results := run(context.Background(), []*scenario.Scenario{{}}, 1)
	if results[0].Err == nil {
		t.Fatal("empty scenario did not fail validation")
	}
}
