package experiments

import (
	"math"
	"strings"
	"testing"

	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

// The experiment tests are regression locks on the *shapes* the paper
// reports; they run with reduced iteration counts and a subset of process
// counts to stay fast.

var fastOpt = Options{Iterations: 5, CalibrationIterations: 3}

func TestTableOverheadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	rows, err := TableOverhead(ground.Bordereau(), []npb.Class{npb.ClassB}, []int{8, 64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// -O3 shortens both versions.
		if r.NewOrig >= r.OldOrig {
			t.Errorf("%s: -O3 original %v not faster than -O0 %v", r.Instance, r.NewOrig, r.OldOrig)
		}
		// Instrumentation always costs time; the new acquisition costs less.
		if r.OldOverheadPct <= 0 || r.NewOverheadPct <= 0 {
			t.Errorf("%s: non-positive overheads %+v", r.Instance, r)
		}
		if r.NewOverheadPct >= r.OldOverheadPct {
			t.Errorf("%s: new overhead %.1f%% not below old %.1f%%",
				r.Instance, r.NewOverheadPct, r.OldOverheadPct)
		}
	}
	// Times decrease with process count.
	if rows[1].OldOrig >= rows[0].OldOrig {
		t.Errorf("B-64 (%v) not faster than B-8 (%v)", rows[1].OldOrig, rows[0].OldOrig)
	}
	// Overhead grows with process count (both pipelines).
	if rows[1].OldOverheadPct <= rows[0].OldOverheadPct {
		t.Errorf("old overhead did not grow with procs: %+v", rows)
	}
}

func TestDiscrepancyShapes(t *testing.T) {
	fine, err := FigureDiscrepancy(ground.Graphene(), OldPipeline, []npb.Class{npb.ClassB}, []int{8, 128}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	min, err := FigureDiscrepancy(ground.Graphene(), NewPipeline, []npb.Class{npb.ClassB}, []int{8, 128}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 band: ~10-16% at 8 procs, rising at 128.
	if fine[0].Dist.Mean < 8 || fine[0].Dist.Mean > 18 {
		t.Errorf("fine B-8 mean = %.2f%%, want ~10-16%%", fine[0].Dist.Mean)
	}
	if fine[1].Dist.Mean <= fine[0].Dist.Mean {
		t.Errorf("fine discrepancy did not grow with procs: %.2f vs %.2f",
			fine[1].Dist.Mean, fine[0].Dist.Mean)
	}
	// Figures 4/5: minimal instrumentation discrepancy far below fine.
	for i := range min {
		if min[i].Dist.Mean >= fine[i].Dist.Mean/2 {
			t.Errorf("%s: minimal %.2f%% not well below fine %.2f%%",
				min[i].Instance, min[i].Dist.Mean, fine[i].Dist.Mean)
		}
		if min[i].Dist.Min < 0 {
			t.Errorf("%s: negative discrepancy %v", min[i].Instance, min[i].Dist)
		}
	}
	// B-8 under the new settings is close to zero (Figure 5).
	if min[0].Dist.Mean > 3 {
		t.Errorf("minimal B-8 mean = %.2f%%, want near zero", min[0].Dist.Mean)
	}
}

func TestFigure3OldPipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	rows, err := FigureAccuracy(ground.Bordereau(), OldPipeline,
		[]npb.Class{npb.ClassB, npb.ClassC}, []int{8, 64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AccuracyRow{}
	for _, r := range rows {
		byName[r.Instance] = r
	}
	// Linear error growth: strongly positive at 64 processes.
	if byName["B-64"].ErrPct < 20 {
		t.Errorf("old pipeline B-64 error = %.1f%%, want the large positive blowup (paper: +38.9%%)",
			byName["B-64"].ErrPct)
	}
	if byName["C-64"].ErrPct < 8 {
		t.Errorf("old pipeline C-64 error = %.1f%%, want clearly positive (paper: +32.5%%)",
			byName["C-64"].ErrPct)
	}
	// Underestimation at small process counts for class C (cache effect).
	if byName["C-8"].ErrPct > -3 {
		t.Errorf("old pipeline C-8 error = %.1f%%, want clearly negative (paper: -15.8%%)",
			byName["C-8"].ErrPct)
	}
	// Growth with process count for both classes.
	if byName["B-64"].ErrPct <= byName["B-8"].ErrPct ||
		byName["C-64"].ErrPct <= byName["C-8"].ErrPct {
		t.Errorf("old pipeline error does not grow with procs: %+v", rows)
	}
}

func TestFigure6And7NewPipelineBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	for _, tc := range []struct {
		cluster *ground.Cluster
		procs   []int
	}{
		{ground.Bordereau(), []int{8, 64}},
		{ground.Graphene(), []int{8, 64}},
	} {
		rows, err := FigureAccuracy(tc.cluster, NewPipeline,
			[]npb.Class{npb.ClassB, npb.ClassC}, tc.procs, fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			// The paper's headline: bounded, stable errors (within ~±12%).
			if math.Abs(r.ErrPct) > 12 {
				t.Errorf("%s on %s: new pipeline error %.1f%% outside ±12%%",
					r.Instance, tc.cluster.Name, r.ErrPct)
			}
		}
	}
}

func TestNewPipelineBeatsOldAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	// The crossover claim: at 64 processes the new pipeline must be far
	// more accurate than the old one.
	oldRows, err := FigureAccuracy(ground.Bordereau(), OldPipeline, []npb.Class{npb.ClassB}, []int{64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	newRows, err := FigureAccuracy(ground.Bordereau(), NewPipeline, []npb.Class{npb.ClassB}, []int{64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(newRows[0].ErrPct) >= math.Abs(oldRows[0].ErrPct)/2 {
		t.Fatalf("new pipeline (%.1f%%) not clearly better than old (%.1f%%) at B-64",
			newRows[0].ErrPct, oldRows[0].ErrPct)
	}
}

func TestGrapheneNewPipelineUnderestimates(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	// Figure 7: the missing sender-side memcpy makes the prediction drift
	// negative as the process count grows.
	rows, err := FigureAccuracy(ground.Graphene(), NewPipeline, []npb.Class{npb.ClassB}, []int{8, 64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].ErrPct >= rows[0].ErrPct {
		t.Errorf("graphene error did not drift down with procs: %.2f%% at 8, %.2f%% at 64",
			rows[0].ErrPct, rows[1].ErrPct)
	}
	if rows[1].ErrPct > 0 {
		t.Errorf("graphene B-64 error = %.2f%%, want negative (underestimation)", rows[1].ErrPct)
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RenderOverhead(&sb, "T", []OverheadRow{{Instance: "B-8", OldOrig: 93.05, OldInstr: 98.64, OldOverheadPct: 6}})
	if !strings.Contains(sb.String(), "B-8") || !strings.Contains(sb.String(), "93.05") {
		t.Fatalf("overhead render: %q", sb.String())
	}
	sb.Reset()
	RenderAccuracy(&sb, "T", []AccuracyRow{{Instance: "C-64", Real: 61, Sim: 71, ErrPct: 16.1, ReplayWallSeconds: 1, ReplayActions: 100}})
	if !strings.Contains(sb.String(), "C-64") || !strings.Contains(sb.String(), "+16.1%") {
		t.Fatalf("accuracy render: %q", sb.String())
	}
	sb.Reset()
	RenderDiscrepancy(&sb, "T", []DiscrepancyRow{{Instance: "B-128"}})
	if !strings.Contains(sb.String(), "B-128") {
		t.Fatalf("discrepancy render: %q", sb.String())
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.iters() != 25 || o.calIters() != 5 {
		t.Fatalf("defaults = %d, %d", o.iters(), o.calIters())
	}
	o = Options{Iterations: 3, CalibrationIterations: 2}
	if o.iters() != 3 || o.calIters() != 2 {
		t.Fatalf("overrides = %d, %d", o.iters(), o.calIters())
	}
}

func TestScaleToFull(t *testing.T) {
	// Class B itmax is 250: a 10-iteration time scales by 25.
	if got := scaleToFull(2.0, npb.ClassB, 10); math.Abs(got-50) > 1e-9 {
		t.Fatalf("scaleToFull = %v, want 50", got)
	}
}
