package instrument

import (
	"math"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

func TestComputeCostNone(t *testing.T) {
	cfg := Config{Mode: None, Compile: O0}
	base, counted, probe := cfg.ComputeCost(1000, 10)
	if base != 1000 || counted != 1000 || probe != 0 {
		t.Fatalf("none: %v %v %v", base, counted, probe)
	}
}

func TestComputeCostFineAddsProbes(t *testing.T) {
	cfg := Config{Mode: Fine, Compile: O0}
	base, counted, probe := cfg.ComputeCost(1000, 10)
	if base != 1000 {
		t.Fatalf("base = %v", base)
	}
	if counted != 1000+DefaultCosts.AppProbeInstr*10 {
		t.Fatalf("counted = %v", counted)
	}
	if probe != DefaultCosts.AppProbeTime*10 {
		t.Fatalf("probe time = %v", probe)
	}
}

func TestComputeCostMinimalAddsNothingPerCall(t *testing.T) {
	cfg := Config{Mode: Minimal, Compile: O0}
	base, counted, probe := cfg.ComputeCost(1000, 10)
	if base != 1000 || counted != 1000 || probe != 0 {
		t.Fatalf("minimal compute: %v %v %v", base, counted, probe)
	}
}

func TestO3ScalesBaseNotProbes(t *testing.T) {
	cfg := Config{Mode: Fine, Compile: O3, Class: npb.ClassB}
	base, counted, _ := cfg.ComputeCost(1000, 10)
	wantBase := 1000 * O3Scale(npb.ClassB)
	if math.Abs(base-wantBase) > 1e-9 {
		t.Fatalf("base = %v, want %v", base, wantBase)
	}
	if math.Abs((counted-base)-DefaultCosts.AppProbeInstr*10) > 1e-9 {
		t.Fatalf("probe instructions were scaled: %v", counted-base)
	}
}

func TestO3ScalePerClass(t *testing.T) {
	if O3Scale(npb.ClassB) != 0.82 || O3Scale(npb.ClassC) != 0.76 {
		t.Fatalf("O3 scales = %v, %v", O3Scale(npb.ClassB), O3Scale(npb.ClassC))
	}
	if O3Scale(npb.ClassA) != 0.82 {
		t.Fatalf("default O3 scale = %v", O3Scale(npb.ClassA))
	}
}

func TestMPICostByMode(t *testing.T) {
	fine, _ := Config{Mode: Fine}.MPICost()
	min, _ := Config{Mode: Minimal}.MPICost()
	coarse, _ := Config{Mode: Coarse}.MPICost()
	none, _ := Config{Mode: None}.MPICost()
	if fine != DefaultCosts.MPIProbeInstrFine || min != DefaultCosts.MPIProbeInstrMinimal {
		t.Fatalf("fine=%v min=%v", fine, min)
	}
	if coarse != 0 || none != 0 {
		t.Fatalf("coarse=%v none=%v, want 0", coarse, none)
	}
	if fine <= min {
		t.Fatal("fine MPI probes should cost more than minimal")
	}
}

func TestCustomCostsOverride(t *testing.T) {
	costs := Costs{AppProbeInstr: 1, AppProbeTime: 2, MPIProbeInstrFine: 3, MPIEventTimeFine: 4}
	cfg := Config{Mode: Fine, Costs: &costs}
	_, counted, probe := cfg.ComputeCost(0, 5)
	if counted != 5 || probe != 10 {
		t.Fatalf("custom costs: counted=%v probe=%v", counted, probe)
	}
	extra, ptime := cfg.MPICost()
	if extra != 3 || ptime != 4 {
		t.Fatalf("custom MPI costs: %v %v", extra, ptime)
	}
}

func TestCountersFineExceedCoarse(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Counters(lu, Config{Mode: Coarse})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Counters(lu, Config{Mode: Fine})
	if err != nil {
		t.Fatal(err)
	}
	min, err := Counters(lu, Config{Mode: Minimal})
	if err != nil {
		t.Fatal(err)
	}
	for r := range coarse {
		if !(fine[r] > min[r] && min[r] > coarse[r]) {
			t.Fatalf("rank %d: fine=%v min=%v coarse=%v, want fine>min>coarse",
				r, fine[r], min[r], coarse[r])
		}
	}
}

func TestCountersMatchBaseInstructions(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Counters(lu, Config{Mode: Coarse})
	if err != nil {
		t.Fatal(err)
	}
	for r := range coarse {
		want := lu.BaseInstructions(r) + DefaultCosts.CoarseSectionInstr
		if math.Abs(coarse[r]-want) > 1e-6*want {
			t.Fatalf("rank %d coarse counter = %v, want %v", r, coarse[r], want)
		}
	}
}

func TestCountersRejectNone(t *testing.T) {
	lu, _ := npb.NewLU(npb.ClassS, 4, 1)
	if _, err := Counters(lu, Config{Mode: None}); err == nil {
		t.Fatal("expected error for uninstrumented counters")
	}
}

// TestFineDiscrepancyInPaperBand: the relative counter difference between
// fine and coarse instrumentation of B-8 must land in the ~10-16% band of
// Figures 1 and 2.
func TestFineDiscrepancyInPaperBand(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassB, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _ := Counters(lu, Config{Mode: Coarse})
	fine, _ := Counters(lu, Config{Mode: Fine})
	for r := range coarse {
		diff := 100 * (fine[r] - coarse[r]) / coarse[r]
		if diff < 8 || diff > 18 {
			t.Fatalf("rank %d fine-vs-coarse = %.2f%%, want in [8,18]", r, diff)
		}
	}
}

// TestMinimalDiscrepancySmall: minimal instrumentation must keep the
// counter discrepancy below ~6% for B-8 (Figures 4/5).
func TestMinimalDiscrepancySmall(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassB, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfgMin := Config{Mode: Minimal, Compile: O3, Class: npb.ClassB}
	cfgCoarse := Config{Mode: Coarse, Compile: O3, Class: npb.ClassB}
	coarse, _ := Counters(lu, cfgCoarse)
	min, _ := Counters(lu, cfgMin)
	for r := range coarse {
		diff := 100 * (min[r] - coarse[r]) / coarse[r]
		if diff < 0 || diff > 6 {
			t.Fatalf("rank %d minimal-vs-coarse = %.2f%%, want in [0,6]", r, diff)
		}
	}
}

// TestDiscrepancyGrowsWithProcesses reproduces the trend of Figure 2: the
// fine-instrumentation discrepancy increases with the process count.
func TestDiscrepancyGrowsWithProcesses(t *testing.T) {
	mean := func(procs int) float64 {
		lu, err := npb.NewLU(npb.ClassB, procs, 5)
		if err != nil {
			t.Fatal(err)
		}
		coarse, _ := Counters(lu, Config{Mode: Coarse})
		fine, _ := Counters(lu, Config{Mode: Fine})
		s := 0.0
		for r := range coarse {
			s += (fine[r] - coarse[r]) / coarse[r]
		}
		return s / float64(procs)
	}
	d8, d128 := mean(8), mean(128)
	if d128 <= d8 {
		t.Fatalf("discrepancy at 128 procs (%.3f) not larger than at 8 (%.3f)", d128, d8)
	}
}

func TestAcquiredTraceInflatesVolumes(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(p trace.Provider) float64 {
		st, err := p.Rank(0)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for {
			var a trace.Action
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return total
			}
			if a.Kind == trace.Compute {
				total += a.Instructions
			}
		}
	}
	perfect := sum(npb.AsProvider(lu))
	fine := sum(Acquired{W: lu, Cfg: Config{Mode: Fine}})
	if fine <= perfect {
		t.Fatalf("fine trace volume %v <= perfect %v", fine, perfect)
	}
}

func TestAcquiredTraceStructurePreserved(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same action kinds in the same order as the perfect trace.
	perfect, _ := npb.AsProvider(lu).Rank(1)
	acquired, _ := Acquired{W: lu, Cfg: Config{Mode: Minimal}}.Rank(1)
	for i := 0; ; i++ {
		var pa trace.Action
		pok, _ := perfect.Next(&pa)
		var aa trace.Action
		aok, _ := acquired.Next(&aa)
		if pok != aok {
			t.Fatalf("stream lengths diverge at %d", i)
		}
		if !pok {
			break
		}
		if pa.Kind != aa.Kind || pa.Peer != aa.Peer || pa.Bytes != aa.Bytes {
			t.Fatalf("action %d differs: %+v vs %+v", i, pa, aa)
		}
	}
}

func TestAcquiredTraceValidates(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(Acquired{W: lu, Cfg: Config{Mode: Fine}}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquiredRejectsNone(t *testing.T) {
	lu, _ := npb.NewLU(npb.ClassS, 2, 1)
	if _, err := (Acquired{W: lu, Cfg: Config{Mode: None}}).Rank(0); err == nil {
		t.Fatal("expected error acquiring from uninstrumented run")
	}
}

func TestModeAndCompileStrings(t *testing.T) {
	if Fine.String() != "fine" || Minimal.String() != "minimal" || None.String() != "none" || Coarse.String() != "coarse" {
		t.Fatal("mode names wrong")
	}
	if O0.String() != "-O0" || O3.String() != "-O3" {
		t.Fatal("compile names wrong")
	}
	cfg := Config{Mode: Fine, Compile: O3}
	if cfg.String() != "fine,-O3" {
		t.Fatalf("config string = %q", cfg.String())
	}
}
