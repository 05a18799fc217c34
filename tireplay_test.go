package tireplay_test

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tireplay"
)

func TestFacadeEndToEnd(t *testing.T) {
	lu, err := tireplay.NewLU(tireplay.ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	perRank, err := tireplay.Materialize(tireplay.PerfectTrace(lu))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	desc, err := tireplay.WriteTraces(dir, "lu_s4", perRank)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(desc) != dir {
		t.Fatalf("desc path = %q", desc)
	}
	prov, err := tireplay.LoadTraces(desc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tireplay.ValidateTraces(prov); err != nil {
		t.Fatal(err)
	}
	plat := facadePlatform(t, facadePlatformSpec(4))
	prov, err = tireplay.LoadTraces(desc, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tireplay.Replay(prov, plat, tireplay.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 || res.Actions == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFacadeAcquiredVsPerfect(t *testing.T) {
	mk := func() tireplay.Workload {
		lu, err := tireplay.NewLU(tireplay.ClassS, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return lu
	}
	cluster := tireplay.Graphene()
	acq, err := tireplay.AcquiredTrace(mk(), cluster.InstrConfig(
		tireplay.FineInstrumentation, tireplay.CompileO0, tireplay.ClassS))
	if err != nil {
		t.Fatal(err)
	}
	sAcq, err := tireplay.CollectTraceStats(acq, 65536)
	if err != nil {
		t.Fatal(err)
	}
	sPerf, err := tireplay.CollectTraceStats(tireplay.PerfectTrace(mk()), 65536)
	if err != nil {
		t.Fatal(err)
	}
	if sAcq.Instructions <= sPerf.Instructions {
		t.Fatalf("fine acquisition %.4g not inflated vs perfect %.4g",
			sAcq.Instructions, sPerf.Instructions)
	}
	if _, err := tireplay.AcquiredTrace(mk(), cluster.InstrConfig(
		tireplay.Uninstrumented, tireplay.CompileO0, tireplay.ClassS)); err == nil {
		t.Fatal("expected error for uninstrumented acquisition")
	}
}

func TestFacadeBackendsDiffer(t *testing.T) {
	run := func(cfg tireplay.ReplayConfig) float64 {
		lu, err := tireplay.NewLU(tireplay.ClassS, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		plat := facadePlatform(t, facadePlatformSpec(8))
		res, err := tireplay.Replay(tireplay.PerfectTrace(lu), plat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime
	}
	smpi := run(tireplay.ReplayConfig{Backend: tireplay.SMPI})
	msg := run(tireplay.ReplayConfig{
		Backend: tireplay.MSG,
		MSG:     tireplay.MSGPrototypeConfig(),
	})
	if msg <= smpi {
		t.Fatalf("MSG backend %v not slower than SMPI %v on a wavefront workload", msg, smpi)
	}
}

func TestFacadeCalibration(t *testing.T) {
	cluster := tireplay.Bordereau()
	classic, err := tireplay.CalibrateClassic(cluster, 3)
	if err != nil {
		t.Fatal(err)
	}
	if classic <= 0 {
		t.Fatal("non-positive classic rate")
	}
	ca, err := tireplay.CalibrateCacheAware(cluster, []tireplay.NPBClass{tireplay.ClassB}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ca.ARate <= 0 || ca.ClassRates[tireplay.ClassB] >= ca.ARate {
		t.Fatalf("cache-aware rates = %+v", ca)
	}
}

// TestFacadeSweepService drives the service surface end to end through
// the facade alone: server over a shared store, submit, in-process
// worker, streamed records matching a local CollectSweep bit for bit.
func TestFacadeSweepService(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sw := &tireplay.Sweep{
		Name: "facade-serve",
		Base: tireplay.Scenario{
			Platform: &tireplay.PlatformSpec{Name: "t", Topology: "flat", Hosts: 2,
				Speed: 1e9, LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
				BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6},
			Workload: &tireplay.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 2, Iterations: 1},
		},
		Axes: []tireplay.SweepAxis{{Name: "iters", Path: "workload.iterations", Values: []any{1, 2}}},
	}
	local, err := tireplay.CollectSweep(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := tireplay.NewSweepServer(tireplay.ServeConfig{Store: t.TempDir(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tireplay.Work(ctx, ts.URL, tireplay.WorkerOptions{Poll: 50 * time.Millisecond})
	}()
	defer wg.Wait()
	defer cancel()

	sub, err := tireplay.SubmitSweep(ctx, ts.URL, sw)
	if err != nil {
		t.Fatal(err)
	}
	byFP := make(map[string]float64)
	for _, r := range local {
		byFP[r.Point.Fingerprint] = r.Replay.SimulatedTime
	}
	got := 0
	for rec, err := range tireplay.StreamResults(ctx, ts.URL, sub.ID) {
		if err != nil {
			t.Fatal(err)
		}
		if rec.Err != "" {
			t.Fatalf("point %s failed: %s", rec.Name, rec.Err)
		}
		want, ok := byFP[rec.Fingerprint]
		if !ok || rec.Replay.SimulatedTime != want {
			t.Fatalf("point %s: served %v, local %v (known %v)", rec.Name, rec.Replay.SimulatedTime, want, ok)
		}
		got++
	}
	if got != len(local) {
		t.Fatalf("streamed %d records, want %d", got, len(local))
	}
}

func TestFacadePlatformSpecRoundTrip(t *testing.T) {
	spec := tireplay.PlatformSpec{
		Name: "h", Topology: "hierarchical", Cabinets: 2, HostsPerCabinet: 4, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		CabinetBandwidth: 1e10, CabinetLatency: 1e-6,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
		Factors: []tireplay.NetworkSegment{{MaxBytes: math.MaxFloat64, LatFactor: 1, BwFactor: 0.9}},
	}
	plat, model, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if plat.Size() != 8 || model == nil {
		t.Fatalf("platform = %d hosts, model = %v", plat.Size(), model)
	}
}

// TestFacadeSpecWithoutFactorsReplaysLikeNoModel: a spec without factors
// builds a nil model, so passing it on replays exactly like passing none.
func TestFacadeSpecWithoutFactorsReplaysLikeNoModel(t *testing.T) {
	torus := &tireplay.PlatformSpec{
		Name: "tor", Topology: "torus", TorusDims: []int{2, 2}, Speed: 2e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
		BackboneBandwidth: 5e9, BackboneLatency: 2e-6,
	}
	for _, spec := range []*tireplay.PlatformSpec{facadePlatformSpec(4), torus} {
		plat, model, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if model != nil {
			t.Fatalf("%s: model = %#v, want nil", spec.Topology, model)
		}
		replay := func(network tireplay.NetworkModel) *tireplay.ReplayResult {
			lu, err := tireplay.NewLU(tireplay.ClassS, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tireplay.Replay(tireplay.PerfectTrace(lu), plat, tireplay.ReplayConfig{Network: network})
			if err != nil {
				t.Fatalf("%s: %v", spec.Topology, err)
			}
			return res
		}
		got, want := replay(model), replay(nil)
		if math.Float64bits(got.SimulatedTime) != math.Float64bits(want.SimulatedTime) ||
			got.Actions != want.Actions || got.Engine != want.Engine {
			t.Fatalf("%s: replay with the built model = %+v, without = %+v", spec.Topology, got, want)
		}
	}
}

// vectorTraces is a two-rank trace whose ranks exchange different
// alltoallv and allgatherv vectors from iteration to iteration.
func vectorTraces(t *testing.T) [][]tireplay.Action {
	t.Helper()
	perRank, err := tireplay.SyntheticMixTraces("alltoallv", 2, 3, 1024.25)
	if err != nil {
		t.Fatal(err)
	}
	return perRank
}

// TestMaterializeOwnsVectors: a stream's vector is its own until its next
// call, so Materialize keeps a copy of each: two different alltoallv
// lines of a text trace come back as two distinct vectors.
func TestMaterializeOwnsVectors(t *testing.T) {
	want := vectorTraces(t)
	desc, err := tireplay.WriteTraces(t.TempDir(), "v", want)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := tireplay.LoadTraces(desc, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tireplay.Materialize(prov)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		seen := map[*float64]int{}
		for i := range want[r] {
			if !got[r][i].Equal(want[r][i]) {
				t.Fatalf("rank %d action %d = %v, want %v", r, i, got[r][i], want[r][i])
			}
			if len(got[r][i].Volumes) == 0 {
				continue
			}
			if j, dup := seen[&got[r][i].Volumes[0]]; dup {
				t.Fatalf("rank %d: actions %d and %d share one vector", r, j, i)
			}
			seen[&got[r][i].Volumes[0]] = i
		}
	}
}

// TestReplayLeavesMemoryTraceIntact: an in-memory stream hands out the
// caller's vectors read-only, so replaying leaves them bit-identical.
func TestReplayLeavesMemoryTraceIntact(t *testing.T) {
	perRank, want := vectorTraces(t), vectorTraces(t)
	plat := facadePlatform(t, facadePlatformSpec(2))
	for _, backend := range []string{tireplay.SMPI, tireplay.MSG} {
		if _, err := tireplay.Replay(tireplay.TracesInMemory(perRank), plat, tireplay.ReplayConfig{Backend: backend}); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for r := range want {
			for i := range want[r] {
				for k, v := range perRank[r][i].Volumes {
					if math.Float64bits(v) != math.Float64bits(want[r][i].Volumes[k]) {
						t.Fatalf("%s: rank %d action %d volumes = %v, were %v", backend, r, i, perRank[r][i].Volumes, want[r][i].Volumes)
					}
				}
			}
		}
	}
}
