// Package experiments reproduces every table and figure of the paper's
// evaluation. Each runner assembles the full tool chain — workload
// generation, emulated acquisition on the ground-truth cluster,
// calibration, trace replay — and returns structured rows; the render
// functions print them in a shape comparable to the paper's tables.
//
// A PipelineConfig describes one generation of that tool chain; the
// paper's two generations are OldPipeline and NewPipeline, and every
// runner takes its acquisition build, calibration and replay from one.
//
// The SSOR loop is steady-state, so runners default to a reduced iteration
// count and scale reported times back to the class itmax; relative
// overheads and errors are iteration-invariant (see DESIGN.md §5.6 and
// EXPERIMENTS.md).
package experiments

import (
	"fmt"

	"tireplay/internal/calibrate"
	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/msgreplay"
	"tireplay/internal/npb"
	"tireplay/internal/sim"
	"tireplay/internal/stats"
)

// Options tunes experiment execution cost.
type Options struct {
	// Iterations is the SSOR iteration count per run; 0 selects the
	// default reduced count (25). Reported times are scaled to the class
	// itmax.
	Iterations int
	// CalibrationIterations for the class-4 calibration runs (default 5).
	CalibrationIterations int
}

func (o Options) iters() int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	return 25
}

func (o Options) calIters() int {
	if o.CalibrationIterations > 0 {
		return o.CalibrationIterations
	}
	return 5
}

// scaleToFull converts a reduced-run time to the full-instance equivalent.
func scaleToFull(t float64, class npb.Class, iters int) float64 {
	full, err := npb.NewLU(class, 4, 0) // class default itmax
	if err != nil {
		return t
	}
	return t * float64(full.ItMax()) / float64(iters)
}

// BordereauProcs and GrapheneProcs are the process counts of the paper's
// study on each cluster.
var (
	BordereauProcs = []int{8, 16, 32, 64}
	GrapheneProcs  = []int{8, 16, 32, 64, 128}
	StudyClasses   = []npb.Class{npb.ClassB, npb.ClassC}
)

// ---------------------------------------------------------------------------
// The tool chain under evaluation.

// PipelineConfig describes one generation of the tool chain as its three
// independent fixes. The paper compares two generations, OldPipeline and
// NewPipeline; the other combinations give the ablation study the paper
// itself does not report, and ModelMemcpy the feature it lists as future
// work in Section 6: modelling the eager-mode memory copy in the replay.
type PipelineConfig struct {
	// NewAcquisition selects minimal instrumentation + -O3 (Section 3.1/3.2)
	// instead of fine instrumentation + -O0.
	NewAcquisition bool
	// CacheAwareCalibration selects the Section 3.4 procedure instead of
	// the classic A-4-only one.
	CacheAwareCalibration bool
	// SMPIBackend selects the rewritten backend (Section 3.3) instead of
	// the MSG prototype.
	SMPIBackend bool
	// ModelMemcpy additionally gives the SMPI backend the sender-side eager
	// copy model — the paper's Section 6 future work ("implement the
	// missing feature to model the time taken in sends ... to copy data in
	// memory in the eager mode of MPI").
	ModelMemcpy bool
}

var (
	// OldPipeline is the first implementation: fine instrumentation, -O0,
	// A-4-only calibration, MSG replay backend (Figure 3).
	OldPipeline = PipelineConfig{}
	// NewPipeline applies every fix of Section 3: minimal instrumentation,
	// -O3, cache-aware calibration, SMPI replay backend (Figures 6 and 7).
	NewPipeline = PipelineConfig{NewAcquisition: true, CacheAwareCalibration: true, SMPIBackend: true}
)

// Name renders a short label for result tables.
func (p PipelineConfig) Name() string {
	switch {
	case !p.NewAcquisition && !p.CacheAwareCalibration && !p.SMPIBackend:
		return "baseline (old)"
	case p.NewAcquisition && p.CacheAwareCalibration && p.SMPIBackend && p.ModelMemcpy:
		return "all fixes + memcpy"
	case p.NewAcquisition && p.CacheAwareCalibration && p.SMPIBackend:
		return "all fixes (new)"
	}
	s := "old"
	if p.NewAcquisition {
		s += "+acq"
	}
	if p.CacheAwareCalibration {
		s += "+cal"
	}
	if p.SMPIBackend {
		s += "+smpi"
	}
	if p.ModelMemcpy {
		s += "+memcpy"
	}
	return s
}

// acquisition returns the instrumentation mode and compile level of the
// acquisition build; the original build users run is the same compile
// level uninstrumented.
func (p PipelineConfig) acquisition() (instrument.Mode, instrument.Compile) {
	if p.NewAcquisition {
		return instrument.Minimal, instrument.O3
	}
	return instrument.Fine, instrument.O0
}

// calibration runs the calibration procedure once on c — the classic A-4
// rate, or the cache-aware table over classes — and returns the rate a
// simulated instance of the class replays at.
func (p PipelineConfig) calibration(c *ground.Cluster, classes []npb.Class, opt Options) (func(npb.Workload, npb.Class) float64, error) {
	if !p.CacheAwareCalibration {
		rate, err := calibrate.ClassicA4(c, opt.calIters())
		return func(npb.Workload, npb.Class) float64 { return rate }, err
	}
	ca, err := calibrate.NewCacheAware(c, classes, opt.calIters())
	if err != nil {
		return nil, err
	}
	return ca.RateFor, nil
}

// replay returns the replay configuration on c's platform, whose network
// model is model: the MSG prototype with its crude hard-coded network
// reference, or SMPI on the platform's model, which copies eager payloads
// only under ModelMemcpy (the paper-era SMPI does not, Section 4.3).
func (p PipelineConfig) replay(c *ground.Cluster, model sim.NetworkModel) core.Config {
	if !p.SMPIBackend {
		return core.Config{Backend: core.MSG, MSG: msgreplay.PrototypeConfig()}
	}
	mpiCfg := c.MPI
	if !p.ModelMemcpy {
		mpiCfg.MemcpyBandwidth, mpiCfg.MemcpyLatency = 0, 0
	}
	return core.Config{Backend: core.SMPI, Network: model, MPI: mpiCfg}
}

// predict replays an acquired trace on c's platform at the calibrated rate.
func (p PipelineConfig) predict(c *ground.Cluster, prov instrument.Acquired, rate float64) (*core.Result, error) {
	plat, model, err := c.Platform(prov.NumRanks())
	if err != nil {
		return nil, err
	}
	plat.SetSpeed(rate)
	return core.Replay(prov, plat, p.replay(c, model))
}

// ---------------------------------------------------------------------------
// Tables 1 and 2: instrumentation time overhead, old vs new acquisition.

// OverheadRow is one instance line of Table 1/2.
type OverheadRow struct {
	Instance string
	// Old acquisition: -O0 build, fine-grain TAU instrumentation.
	OldOrig, OldInstr, OldOverheadPct float64
	// New acquisition: -O3 build, minimal instrumentation.
	NewOrig, NewInstr, NewOverheadPct float64
}

// TableOverhead reproduces Table 1 (bordereau) or Table 2 (graphene):
// original vs instrumented execution times under both acquisition setups.
func TableOverhead(c *ground.Cluster, classes []npb.Class, procs []int, opt Options) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, class := range classes {
		for _, p := range procs {
			if p > c.Hosts {
				continue
			}
			lu, err := npb.NewLU(class, p, opt.iters())
			if err != nil {
				return nil, err
			}
			row := OverheadRow{Instance: fmt.Sprintf("%s-%d", class, p)}
			dst := [2][2]*float64{{&row.OldOrig, &row.OldInstr}, {&row.NewOrig, &row.NewInstr}}
			for g, pipe := range []PipelineConfig{OldPipeline, NewPipeline} {
				mode, compile := pipe.acquisition()
				for i, m := range []instrument.Mode{instrument.None, mode} {
					res, err := c.Run(lu, c.InstrConfig(m, compile, class))
					if err != nil {
						return nil, err
					}
					*dst[g][i] = scaleToFull(res.Time, class, opt.iters())
				}
			}
			row.OldOverheadPct = stats.RelErr(row.OldInstr, row.OldOrig)
			row.NewOverheadPct = stats.RelErr(row.NewInstr, row.NewOrig)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figures 1, 2, 4, 5: instruction counter discrepancy distributions.

// DiscrepancyRow is one instance of a counter-discrepancy figure: the
// distribution across processes of the relative difference (in %) between
// the instrumented and reference counter readings.
type DiscrepancyRow struct {
	Instance string
	Dist     stats.Summary
}

// FigureDiscrepancy compares the counters of the pipeline's acquisition
// build with the coarse reference at the same compile level: OldPipeline
// gives Figures 1/2 (fine vs coarse, -O0), NewPipeline Figures 4/5
// (minimal vs coarse, -O3).
func FigureDiscrepancy(c *ground.Cluster, pipe PipelineConfig, classes []npb.Class, procs []int, opt Options) ([]DiscrepancyRow, error) {
	mode, compile := pipe.acquisition()
	var rows []DiscrepancyRow
	for _, class := range classes {
		for _, p := range procs {
			if p > c.Hosts {
				continue
			}
			lu, err := npb.NewLU(class, p, opt.iters())
			if err != nil {
				return nil, err
			}
			inst, err := instrument.Counters(lu, c.InstrConfig(mode, compile, class))
			if err != nil {
				return nil, err
			}
			ref, err := instrument.Counters(lu, c.InstrConfig(instrument.Coarse, compile, class))
			if err != nil {
				return nil, err
			}
			diffs := make([]float64, len(inst))
			for r := range inst {
				diffs[r] = stats.RelErr(inst[r], ref[r])
			}
			dist, err := stats.Summarize(diffs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DiscrepancyRow{
				Instance: fmt.Sprintf("%s-%d", class, p),
				Dist:     dist,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figures 3, 6, 7: accuracy of the simulated execution.

// AccuracyRow is one instance of an accuracy figure.
type AccuracyRow struct {
	Instance string
	Class    npb.Class
	Procs    int
	// Real is the emulated real execution time, Sim the replayed
	// prediction (both scaled to the full instance).
	Real, Sim float64
	// ErrPct is the relative error of Sim w.r.t. Real, in percent.
	ErrPct float64
	// ReplayWallSeconds and ReplayActions document the efficiency axis.
	ReplayWallSeconds float64
	ReplayActions     int64
}

// FigureAccuracy runs the whole tool chain on each instance: the original
// build's real execution, acquisition, calibration and replay. It
// reproduces Figure 3 (OldPipeline on bordereau), Figures 6/7 (NewPipeline
// on bordereau/graphene) and, with the other configurations, the ablation
// study.
func FigureAccuracy(c *ground.Cluster, pipe PipelineConfig, classes []npb.Class, procs []int, opt Options) ([]AccuracyRow, error) {
	// Calibration is done once per cluster and reused, as in practice.
	rateFor, err := pipe.calibration(c, classes, opt)
	if err != nil {
		return nil, err
	}
	mode, compile := pipe.acquisition()
	var rows []AccuracyRow
	for _, class := range classes {
		for _, p := range procs {
			if p > c.Hosts {
				continue
			}
			lu, err := npb.NewLU(class, p, opt.iters())
			if err != nil {
				return nil, err
			}
			real, err := c.Run(lu, c.InstrConfig(instrument.None, compile, class))
			if err != nil {
				return nil, err
			}
			prov := instrument.Acquired{W: lu, Cfg: c.InstrConfig(mode, compile, class)}
			res, err := pipe.predict(c, prov, rateFor(lu, class))
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{
				Instance:          fmt.Sprintf("%s-%d", class, p),
				Class:             class,
				Procs:             p,
				Real:              scaleToFull(real.Time, class, opt.iters()),
				Sim:               scaleToFull(res.SimulatedTime, class, opt.iters()),
				ErrPct:            stats.RelErr(res.SimulatedTime, real.Time),
				ReplayWallSeconds: res.Wall.Seconds(),
				ReplayActions:     res.Actions,
			})
		}
	}
	return rows, nil
}
