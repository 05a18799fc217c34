package experiments

import (
	"tireplay/internal/ground"
	"tireplay/internal/npb"
)

// AblationRow holds the error of one fix combination on one instance.
type AblationRow struct {
	Config   string
	Instance string
	ErrPct   float64
}

// AblationConfigs is the sequence the ablation study evaluates: the
// baseline, each fix in isolation, and all fixes together.
var AblationConfigs = []PipelineConfig{
	OldPipeline,
	{NewAcquisition: true},
	{CacheAwareCalibration: true},
	{SMPIBackend: true},
	NewPipeline,
}

// Ablation quantifies each fix's individual contribution to the accuracy
// improvement between Figure 3 and Figure 6, on the given instances.
func Ablation(c *ground.Cluster, class npb.Class, procs []int, opt Options) ([]AblationRow, error) {
	return ablationRows(c, AblationConfigs, []npb.Class{class}, procs, opt)
}

// FutureWorkMemcpy evaluates the Section 6 extension: the new pipeline with
// and without the eager-copy model in the replay. The paper predicts the
// systematic underestimation of Figures 6/7 "should be compensated by
// taking memory copy into account".
func FutureWorkMemcpy(c *ground.Cluster, classes []npb.Class, procs []int, opt Options) ([]AblationRow, error) {
	withCopy := NewPipeline
	withCopy.ModelMemcpy = true
	return ablationRows(c, []PipelineConfig{NewPipeline, withCopy}, classes, procs, opt)
}

// ablationRows runs the accuracy experiment under each configuration in
// turn and keeps every row's error.
func ablationRows(c *ground.Cluster, configs []PipelineConfig, classes []npb.Class, procs []int, opt Options) ([]AblationRow, error) {
	var rows []AblationRow
	for _, pcfg := range configs {
		acc, err := FigureAccuracy(c, pcfg, classes, procs, opt)
		if err != nil {
			return nil, err
		}
		for _, r := range acc {
			rows = append(rows, AblationRow{Config: pcfg.Name(), Instance: r.Instance, ErrPct: r.ErrPct})
		}
	}
	return rows, nil
}
