package experiments

import (
	"math"
	"strings"
	"testing"

	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

func TestPipelineConfigNames(t *testing.T) {
	cases := []struct {
		cfg  PipelineConfig
		want string
	}{
		{PipelineConfig{}, "baseline (old)"},
		{PipelineConfig{NewAcquisition: true}, "old+acq"},
		{PipelineConfig{CacheAwareCalibration: true}, "old+cal"},
		{PipelineConfig{SMPIBackend: true}, "old+smpi"},
		{PipelineConfig{NewAcquisition: true, CacheAwareCalibration: true, SMPIBackend: true}, "all fixes (new)"},
		{PipelineConfig{NewAcquisition: true, CacheAwareCalibration: true, SMPIBackend: true, ModelMemcpy: true}, "all fixes + memcpy"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.cfg, got, c.want)
		}
	}
}

func TestAblationBackendDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	// At 64 processes the backend swap must provide the bulk of the
	// improvement: |error(old+smpi)| << |error(baseline)|.
	c := ground.Bordereau()
	base, err := FigureAccuracy(c, OldPipeline, []npb.Class{npb.ClassB}, []int{64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	smpi, err := FigureAccuracy(c, PipelineConfig{SMPIBackend: true}, []npb.Class{npb.ClassB}, []int{64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(smpi[0].ErrPct) >= math.Abs(base[0].ErrPct)/2 {
		t.Fatalf("backend fix alone: %.1f%%, baseline %.1f%% — expected the backend to dominate",
			smpi[0].ErrPct, base[0].ErrPct)
	}
}

func TestFutureWorkMemcpyCompensates(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second campaign test in -short mode")
	}
	// Section 6's prediction: modelling the copy compensates the
	// underestimation — the with-memcpy error must be algebraically larger
	// (less negative) than without.
	rows, err := FutureWorkMemcpy(ground.Graphene(), []npb.Class{npb.ClassB}, []int{64}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	without, with := rows[0].ErrPct, rows[1].ErrPct
	if with <= without {
		t.Fatalf("memcpy model did not raise the prediction: %.2f%% -> %.2f%%", without, with)
	}
}

func TestAblationRunsAllConfigs(t *testing.T) {
	rows, err := Ablation(ground.Bordereau(), npb.ClassB, []int{8}, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationConfigs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(AblationConfigs))
	}
}

func TestRenderAblation(t *testing.T) {
	var sb strings.Builder
	RenderAblation(&sb, "T", []AblationRow{
		{Config: "baseline (old)", Instance: "B-8", ErrPct: 7.3},
		{Config: "baseline (old)", Instance: "B-64", ErrPct: 35.2},
	})
	out := sb.String()
	if !strings.Contains(out, "baseline (old)") || !strings.Contains(out, "+35.2%") {
		t.Fatalf("render: %q", out)
	}
	// Repeated config names are collapsed.
	if strings.Count(out, "baseline (old)") != 1 {
		t.Fatalf("config name not collapsed: %q", out)
	}
}
