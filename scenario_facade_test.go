package tireplay_test

// Facade-level coverage of the Scenario/Runner surface: the same sweep
// expressed declaratively must reproduce the one-shot Replay calls exactly,
// including through the compat shim.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tireplay"
)

func facadePlatformSpec(procs int) *tireplay.PlatformSpec {
	return &tireplay.PlatformSpec{
		Name: "t", Topology: "flat", Hosts: procs, Speed: 2e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

// facadePlatform builds spec, failing the test on error.
func facadePlatform(tb testing.TB, spec *tireplay.PlatformSpec) *tireplay.Platform {
	tb.Helper()
	plat, _, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return plat
}

func TestFacadeScenarioMatchesReplayShim(t *testing.T) {
	// Old API: one-shot Replay.
	lu, err := tireplay.NewLU(tireplay.ClassA, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plat := facadePlatform(t, facadePlatformSpec(8))
	old, err := tireplay.Replay(tireplay.PerfectTrace(lu), plat, tireplay.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// New API: the same replay declared as a scenario.
	s := &tireplay.Scenario{
		Platform: facadePlatformSpec(8),
		Workload: &tireplay.WorkloadSpec{Benchmark: "lu", Class: "A", Procs: 8, Iterations: 3},
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime != old.SimulatedTime {
		t.Fatalf("scenario %v != shim %v", res.SimulatedTime, old.SimulatedTime)
	}
	if res.Actions != old.Actions {
		t.Fatalf("scenario actions %d != shim %d", res.Actions, old.Actions)
	}
}

func TestFacadeBatchSweep(t *testing.T) {
	// The acceptance-criteria sweep at facade level: >= 8 LU/CG scenarios,
	// 4 workers, byte-identical per-scenario times vs sequential Replay.
	type inst struct {
		bench string
		class string
		procs int
	}
	var insts []inst
	for _, bench := range []string{"lu", "cg"} {
		for _, class := range []string{"S", "A"} {
			for _, procs := range []int{4, 8} {
				insts = append(insts, inst{bench, class, procs})
			}
		}
	}
	if len(insts) < 8 {
		t.Fatalf("only %d instances", len(insts))
	}

	var scenarios []*tireplay.Scenario
	for _, in := range insts {
		scenarios = append(scenarios, &tireplay.Scenario{
			Name:     fmt.Sprintf("%s-%s-%d", in.bench, in.class, in.procs),
			Platform: facadePlatformSpec(in.procs),
			Workload: &tireplay.WorkloadSpec{
				Benchmark: in.bench, Class: in.class, Procs: in.procs, Iterations: 2,
			},
		})
	}

	results, err := tireplay.RunScenarios(context.Background(), scenarios, tireplay.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", scenarios[i].Name, r.Err)
		}
		// Sequential reference through the compat shim.
		in := insts[i]
		var w tireplay.Workload
		var werr error
		class := tireplay.NPBClass(in.class[0])
		if in.bench == "lu" {
			w, werr = tireplay.NewLU(class, in.procs, 2)
		} else {
			w, werr = tireplay.NewCG(class, in.procs, 2)
		}
		if werr != nil {
			t.Fatal(werr)
		}
		plat := facadePlatform(t, facadePlatformSpec(in.procs))
		ref, err := tireplay.Replay(tireplay.PerfectTrace(w), plat, tireplay.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Replay.SimulatedTime != ref.SimulatedTime {
			t.Fatalf("%s: batch %v != sequential %v",
				scenarios[i].Name, r.Replay.SimulatedTime, ref.SimulatedTime)
		}
	}
}

// TestFacadeSweep drives the exported sweep surface end to end: declare a
// grid, stream it with a JSONL sink and a store, then resume it.
func TestFacadeSweep(t *testing.T) {
	dir := t.TempDir()
	sw := &tireplay.Sweep{
		Name: "facade",
		Base: tireplay.Scenario{
			Platform: facadePlatformSpec(8),
			Workload: &tireplay.WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 4, Iterations: 2},
		},
		NameFormat: "cg-{procs}p-{backend}",
		Axes: []tireplay.SweepAxis{
			{Name: "procs", Values: []any{
				map[string]any{"workload.procs": 4, "platform.hosts": 4},
				map[string]any{"workload.procs": 8, "platform.hosts": 8},
			}, Labels: []string{"4", "8"}},
			{Name: "backend", Values: []any{"smpi", "msg"}},
		},
		Store: filepath.Join(dir, "results"),
	}

	jsonl, err := os.Create(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []tireplay.SweepResult
	for r, err := range tireplay.RunSweep(context.Background(), sw,
		tireplay.WithSweepWorkers(2), tireplay.WithSink(tireplay.NewJSONLSink(jsonl))) {
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Point.Scenario.Name, r.Err)
		}
		streamed = append(streamed, r)
	}
	jsonl.Close()
	if len(streamed) != 4 {
		t.Fatalf("streamed %d results, want 4", len(streamed))
	}

	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := tireplay.ReadSweepRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("JSONL has %d records, want 4", len(recs))
	}

	// A resumed run serves everything from the store, bit-identical.
	results, err := tireplay.CollectSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	bySim := make(map[string]float64)
	for _, r := range streamed {
		bySim[r.Point.Fingerprint] = r.Replay.SimulatedTime
	}
	for _, r := range results {
		if !r.Cached {
			t.Fatalf("%s: not served from the store", r.Point.Scenario.Name)
		}
		if want := bySim[r.Point.Fingerprint]; r.Replay.SimulatedTime != want {
			t.Fatalf("%s: resumed %v != streamed %v", r.Point.Scenario.Name, r.Replay.SimulatedTime, want)
		}
	}

	// The fingerprint helper agrees with the points' identities.
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := tireplay.ScenarioFingerprint(pts[0].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if fp != pts[0].Fingerprint {
		t.Fatalf("fingerprint mismatch: %s != %s", fp, pts[0].Fingerprint)
	}
}

func TestFacadeTraceErrorSurface(t *testing.T) {
	// A malformed trace (an orphan wait) surfaces the structured error
	// types re-exported by the facade.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad_0.trace"), []byte("p0 wait\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.desc"), []byte("bad_0.trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := tireplay.LoadTraces(filepath.Join(dir, "bad.desc"), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := facadePlatformSpec(1)
	spec.Speed = 1e9
	plat := facadePlatform(t, spec)
	if _, err = tireplay.Replay(prov, plat, tireplay.ReplayConfig{}); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if !errors.Is(err, tireplay.ErrNoOutstandingRequest) {
		t.Fatalf("error %v does not wrap ErrNoOutstandingRequest", err)
	}
	var te *tireplay.TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *TraceError", err)
	}
}

func TestFacadeBackendsRegistry(t *testing.T) {
	names := tireplay.Backends()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found[tireplay.SMPI] || !found[tireplay.MSG] {
		t.Fatalf("builtin backends missing from registry: %v", names)
	}
}
