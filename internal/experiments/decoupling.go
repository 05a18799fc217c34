package experiments

import (
	"fmt"
	"math"

	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
	"tireplay/internal/stats"
)

// The decoupling experiment demonstrates the paper's central design claim
// (Sections 1 and 6): because time-independent traces contain only volumes,
// "heterogeneous and distributed platforms can then be used to get traces
// without impacting the quality of the simulation, which is not possible
// with any other tool". We acquire the same instance on *different*
// emulated machines — different speeds, different jitter, different
// instrumentation cost tables — and show that the replayed prediction for a
// fixed target platform is unchanged (the residual difference is only the
// probe-count term of the counters, which is machine-independent here and
// tiny by construction).

// DecouplingRow is one acquisition-site line.
type DecouplingRow struct {
	AcquiredOn string
	// Instructions is the mean per-rank counter total of the acquired
	// trace.
	Instructions float64
	// Sim is the predicted time for the fixed target platform.
	Sim float64
	// DeltaPct is the relative difference of Sim vs the first row.
	DeltaPct float64
}

// Decoupling acquires an LU instance on each cluster in sites with the new
// pipeline's build and replays every acquired trace on the *target*
// cluster's platform with the target's calibration, returning one row per
// acquisition site. The row acquired on the target is FigureAccuracy's
// NewPipeline prediction.
func Decoupling(target *ground.Cluster, sites []*ground.Cluster, class npb.Class, procs int, opt Options) ([]DecouplingRow, error) {
	lu, err := npb.NewLU(class, procs, opt.iters())
	if err != nil {
		return nil, err
	}
	// Calibrate once against the target (prediction always targets it),
	// choosing the rate by the replayed instance (Section 3.4).
	rateFor, err := NewPipeline.calibration(target, []npb.Class{class}, opt)
	if err != nil {
		return nil, err
	}
	mode, compile := NewPipeline.acquisition()
	var rows []DecouplingRow
	for _, site := range sites {
		acq := site.InstrConfig(mode, compile, class)
		counters, err := instrument.Counters(lu, acq)
		if err != nil {
			return nil, err
		}
		meanInstr, err := stats.Mean(counters)
		if err != nil {
			return nil, err
		}
		res, err := NewPipeline.predict(target, instrument.Acquired{W: lu, Cfg: acq}, rateFor(lu, class))
		if err != nil {
			return nil, err
		}
		row := DecouplingRow{
			AcquiredOn:   site.Name,
			Instructions: meanInstr,
			Sim:          scaleToFull(res.SimulatedTime, class, opt.iters()),
		}
		if len(rows) > 0 {
			row.DeltaPct = stats.RelErr(row.Sim, rows[0].Sim)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MaxDecouplingDelta returns the largest |DeltaPct| across rows.
func MaxDecouplingDelta(rows []DecouplingRow) float64 {
	m := 0.0
	for _, r := range rows {
		if d := math.Abs(r.DeltaPct); d > m {
			m = d
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// Efficiency: how fast the replay itself runs, per backend and scale.

// EfficiencyRow documents replay cost for one instance and backend.
type EfficiencyRow struct {
	Instance string
	Backend  string
	// Sim is the simulated time, Wall the wall-clock replay duration.
	Sim, Wall float64
	// Actions replayed and throughput.
	Actions          int64
	ActionsPerSecond float64
	// Speedup is simulated seconds per wall second (how much faster than
	// the machine being simulated the simulation runs).
	Speedup float64
}

// Efficiency replays perfect traces of the class across process counts on
// the target cluster's platform, for both backends: SMPI with the eager
// copy modelled, and the MSG prototype.
func Efficiency(target *ground.Cluster, class npb.Class, procs []int, opt Options) ([]EfficiencyRow, error) {
	var rows []EfficiencyRow
	for _, p := range procs {
		if p > target.Hosts {
			continue
		}
		lu, err := npb.NewLU(class, p, opt.iters())
		if err != nil {
			return nil, err
		}
		for _, pipe := range []PipelineConfig{{SMPIBackend: true, ModelMemcpy: true}, OldPipeline} {
			plat, model, err := target.Platform(p)
			if err != nil {
				return nil, err
			}
			cfg := pipe.replay(target, model)
			res, err := core.Replay(npb.AsProvider(lu), plat, cfg)
			if err != nil {
				return nil, err
			}
			row := EfficiencyRow{
				Instance:         fmt.Sprintf("%s-%d", class, p),
				Backend:          cfg.Backend,
				Sim:              res.SimulatedTime,
				Wall:             res.Wall.Seconds(),
				Actions:          res.Actions,
				ActionsPerSecond: res.ActionsPerSecond(),
			}
			if row.Wall > 0 {
				row.Speedup = row.Sim / row.Wall
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
