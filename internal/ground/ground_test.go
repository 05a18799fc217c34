package ground

import (
	"errors"
	"strings"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

func TestClusterDefinitions(t *testing.T) {
	b := Bordereau()
	if b.Hosts != 93 || b.L2Bytes != 1<<20 {
		t.Fatalf("bordereau = %+v", b)
	}
	g := Graphene()
	if g.Hosts != 144 || g.L2Bytes != 2<<20 {
		t.Fatalf("graphene = %+v", g)
	}
	if g.BaseRate <= b.BaseRate {
		t.Fatal("graphene should be faster than bordereau")
	}
	// Ground truth must model the eager memcpy (the feature SMPI lacks).
	if b.MPI.MemcpyBandwidth <= 0 || g.MPI.MemcpyBandwidth <= 0 {
		t.Fatal("ground truth must model the eager memcpy")
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"bordereau", "Graphene", "BORDEREAU"} {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(c.Name, name) {
			t.Errorf("Lookup(%q) = %s", name, c.Name)
		}
	}
	_, err := Lookup("nowhere")
	if err == nil || !strings.Contains(err.Error(), "bordereau") || !strings.Contains(err.Error(), "graphene") {
		t.Fatalf("unknown cluster error %v does not name both clusters", err)
	}
}

func TestCacheResidency(t *testing.T) {
	b, g := Bordereau(), Graphene()
	luA4, _ := npb.NewLU(npb.ClassA, 4, 1)
	luB4, _ := npb.NewLU(npb.ClassB, 4, 1)
	luC8, _ := npb.NewLU(npb.ClassC, 8, 1)
	if !b.CacheResident(luA4) {
		t.Error("A-4 must be cache-resident on bordereau (Section 2.3)")
	}
	if b.CacheResident(luB4) {
		t.Error("B-4 must spill on bordereau (Section 3.4)")
	}
	if b.CacheResident(luC8) {
		t.Error("C-8 must spill on bordereau")
	}
	for _, procs := range []int{8, 16, 32, 64, 128} {
		for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
			lu, err := npb.NewLU(class, procs, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !g.CacheResident(lu) {
				t.Errorf("%s must be cache-resident on graphene (Section 3.4)", lu.Name())
			}
		}
	}
}

func TestRateForAppliesCacheAndJitter(t *testing.T) {
	b := Bordereau()
	luA4, _ := npb.NewLU(npb.ClassA, 4, 1)
	luC4, _ := npb.NewLU(npb.ClassC, 4, 1)
	rA := b.rateFor(luA4, 0)
	rC := b.rateFor(luC4, 0)
	if rA > b.BaseRate {
		t.Fatalf("jittered rate %v exceeds base %v", rA, b.BaseRate)
	}
	if rA < b.BaseRate*(1-b.JitterAmp) {
		t.Fatalf("jittered rate %v below floor", rA)
	}
	if rC >= rA*b.OutOfCacheFactor*1.05 {
		t.Fatalf("out-of-cache rate %v not reduced vs %v", rC, rA)
	}
}

func TestRunSmallInstance(t *testing.T) {
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(lu, instrument.Config{Mode: instrument.None})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("run time = %v", res.Time)
	}
	// Lower bound: pure compute of the slowest rank at full speed.
	minCompute := lu.BaseInstructions(0) / b.BaseRate
	if res.Time < minCompute {
		t.Fatalf("run time %v below compute lower bound %v", res.Time, minCompute)
	}
}

func TestRunDeterministic(t *testing.T) {
	g := Graphene()
	run := func() float64 {
		lu, err := npb.NewLU(npb.ClassS, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(lu, instrument.Config{Mode: instrument.None})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("ground truth not deterministic: %v vs %v", a, b)
	}
}

func TestInstrumentedRunSlower(t *testing.T) {
	b := Bordereau()
	mk := func() npb.Workload {
		lu, err := npb.NewLU(npb.ClassS, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return lu
	}
	orig, err := b.Run(mk(), instrument.Config{Mode: instrument.None})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := b.Run(mk(), instrument.Config{Mode: instrument.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if instr.Time <= orig.Time {
		t.Fatalf("instrumented run %v not slower than original %v", instr.Time, orig.Time)
	}
	minimal, err := b.Run(mk(), instrument.Config{Mode: instrument.Minimal})
	if err != nil {
		t.Fatal(err)
	}
	if minimal.Time >= instr.Time {
		t.Fatalf("minimal instrumentation %v not cheaper than fine %v", minimal.Time, instr.Time)
	}
}

func TestO3RunFaster(t *testing.T) {
	b := Bordereau()
	lu := func() npb.Workload {
		l, err := npb.NewLU(npb.ClassS, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	o0, err := b.Run(lu(), instrument.Config{Mode: instrument.None, Compile: instrument.O0, Class: npb.ClassS})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := b.Run(lu(), instrument.Config{Mode: instrument.None, Compile: instrument.O3, Class: npb.ClassS})
	if err != nil {
		t.Fatal(err)
	}
	if o3.Time >= o0.Time {
		t.Fatalf("-O3 run %v not faster than -O0 %v", o3.Time, o0.Time)
	}
}

func TestRunRejectsOversizedWorkload(t *testing.T) {
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassB, 128, 1) // bordereau has 93 nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(lu, instrument.Config{Mode: instrument.None}); err == nil {
		t.Fatal("expected error for 128 ranks on 93 nodes")
	}
}

// TestGroundTruthMagnitudes sanity-checks the tuned constants against the
// paper's Table 1/2 originals, scaled to the reduced iteration count:
// B-8 on bordereau took ~93 s at -O0 over 250 iterations (~0.37 s/iter).
func TestGroundTruthMagnitudes(t *testing.T) {
	if testing.Short() {
		t.Skip("magnitude check needs a multi-iteration run")
	}
	const iters = 10
	b := Bordereau()
	lu, err := npb.NewLU(npb.ClassB, 8, iters)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(lu, instrument.Config{Mode: instrument.None, Compile: instrument.O0, Class: npb.ClassB})
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Time / iters
	if perIter < 0.25 || perIter > 0.55 {
		t.Fatalf("B-8 bordereau = %.3f s/iteration, want ~0.37 (93 s / 250)", perIter)
	}
}

// opsWorkload is a one-rank workload replaying a fixed action list, one
// call per action.
type opsWorkload []trace.Action

func (w opsWorkload) Name() string                      { return "ops" }
func (w opsWorkload) Ranks() int                        { return 1 }
func (w opsWorkload) WorkingSet(int) float64            { return 0 }
func (w opsWorkload) BaseInstructions(rank int) float64 { return 0 }

func (w opsWorkload) Rank(rank int) (npb.OpStream, error) {
	st, err := trace.NewMemProvider([][]trace.Action{w}).Rank(rank)
	return opsStream{st}, err
}

type opsStream struct{ trace.Stream }

func (opsStream) Calls() float64 { return 1 }

// TestMalformedOpStreamIsTraceError: an operation stream the lowering
// rejects must surface as a structured *core.TraceError from Run, not as a
// panic report.
func TestMalformedOpStreamIsTraceError(t *testing.T) {
	w := opsWorkload{{Kind: trace.Wait, Peer: -1}}
	_, err := Bordereau().Run(w, instrument.Config{Mode: instrument.None})
	var te *core.TraceError
	if !errors.As(err, &te) || !errors.Is(err, core.ErrNoOutstandingRequest) {
		t.Fatalf("err = %v, want a TraceError wrapping ErrNoOutstandingRequest", err)
	}
	const want = `ground: emulating ops on bordereau: ground replay, rank 0, action "wait": wait with no outstanding request`
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}
