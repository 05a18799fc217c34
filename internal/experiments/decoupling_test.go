package experiments

import (
	"strings"
	"testing"

	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

// TestDecouplingInvariance locks the paper's central claim: predictions are
// independent of the machine the trace was acquired on.
func TestDecouplingInvariance(t *testing.T) {
	rows, err := Decoupling(ground.Graphene(),
		[]*ground.Cluster{ground.Graphene(), ground.Bordereau()},
		npb.ClassB, 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if d := MaxDecouplingDelta(rows); d > 0.5 {
		t.Fatalf("prediction depends on the acquisition machine: max delta %.3f%%", d)
	}
	for _, r := range rows {
		if r.Sim <= 0 || r.Instructions <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

// TestDecouplingCalibratesPerInstance requires the row acquired on the
// target to be the new pipeline's prediction, whose cache-aware rate is
// chosen by the replayed instance's working set (Section 3.4). Bordereau
// B-8 and graphene C-8 spill out of L2; a rate chosen by any other
// instance's working set would replay them in-cache.
func TestDecouplingCalibratesPerInstance(t *testing.T) {
	for _, tc := range []struct {
		target *ground.Cluster
		class  npb.Class
	}{
		{ground.Bordereau(), npb.ClassB},
		{ground.Graphene(), npb.ClassC},
	} {
		rows, err := Decoupling(tc.target, []*ground.Cluster{tc.target}, tc.class, 8, fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := FigureAccuracy(tc.target, NewPipeline, []npb.Class{tc.class}, []int{8}, fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Sim != acc[0].Sim {
			t.Errorf("%s %s-8: decoupling predicts %v, the new pipeline %v",
				tc.target.Name, tc.class, rows[0].Sim, acc[0].Sim)
		}
	}
}

func TestEfficiencyRows(t *testing.T) {
	rows, err := Efficiency(ground.Graphene(), npb.ClassB, []int{8, 16}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 procs x 2 backends
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Actions == 0 || r.Wall <= 0 || r.ActionsPerSecond <= 0 {
			t.Fatalf("bad efficiency row %+v", r)
		}
	}
	// More ranks -> more actions.
	if rows[2].Actions <= rows[0].Actions {
		t.Fatalf("B-16 actions (%d) not above B-8 (%d)", rows[2].Actions, rows[0].Actions)
	}
}

func TestRenderDecouplingAndEfficiency(t *testing.T) {
	var sb strings.Builder
	RenderDecoupling(&sb, "T", []DecouplingRow{{AcquiredOn: "graphene", Instructions: 1e9, Sim: 14.6}})
	if !strings.Contains(sb.String(), "graphene") {
		t.Fatalf("decoupling render: %q", sb.String())
	}
	sb.Reset()
	RenderEfficiency(&sb, "T", []EfficiencyRow{{Instance: "B-8", Backend: "smpi", Sim: 2, Wall: 0.1, Actions: 58016, ActionsPerSecond: 5e5, Speedup: 19}})
	if !strings.Contains(sb.String(), "B-8") || !strings.Contains(sb.String(), "smpi") {
		t.Fatalf("efficiency render: %q", sb.String())
	}
}
