// Package ground emulates the *real* execution platforms of the paper's
// evaluation — the Grid'5000 bordereau and graphene clusters — which are the
// reference every accuracy figure is computed against. Since the physical
// machines are not available, the emulation is the same simulation kernel
// configured with a deliberately richer machine model than any replay
// backend has access to:
//
//   - cache-dependent instruction rates: a rank whose hot working set
//     exceeds the per-core L2 capacity computes at a reduced rate
//     (Section 2.3);
//   - the sender-side memory copy of eager messages, which the paper-era
//     SMPI does not model (Section 4.3);
//   - deterministic per-rank speed jitter (OS noise, aging hardware — the
//     paper calls bordereau "prone to failures and suspect behaviors");
//   - instrumentation probe time and counter inflation when running an
//     instrumented build (Sections 2.1/2.2).
//
// The controlled gaps between this model and the replay backends are what
// produce the error shapes of Figures 3, 6 and 7.
package ground

import (
	"fmt"

	"tireplay/internal/core"
	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/stats"
	"tireplay/internal/trace"
)

// Cluster describes one emulated execution platform.
type Cluster struct {
	// Name of the cluster ("bordereau", "graphene").
	Name string
	// Hosts is the node count (one rank per node).
	Hosts int
	// BaseRate is the in-cache instruction rate of one core (instr/s).
	BaseRate float64
	// L2Bytes is the per-core L2 capacity.
	L2Bytes float64
	// OutOfCacheFactor multiplies the rate of ranks whose working set
	// exceeds L2Bytes.
	OutOfCacheFactor float64
	// JitterAmp is the amplitude of the per-rank slowdown: rank r computes
	// at BaseRate * cache * (1 - JitterAmp*u_r) with u_r deterministic in
	// [0,1). Real time can only be lost to noise, never gained.
	JitterAmp float64
	// Seed drives the deterministic jitter streams.
	Seed uint64
	// MPI is the ground-truth communication model (memcpy modelled).
	MPI mpi.ModelConfig
	// O3Scales holds per-class -O3 instruction factors measured on this
	// cluster's compiler/ISA pair (nil entries fall back to the class
	// defaults of the instrument package).
	O3Scales map[npb.Class]float64
	// ProbeCosts overrides the instrumentation cost model for this cluster
	// (TAU version, local disk speed); nil keeps the defaults.
	ProbeCosts *instrument.Costs
	// Spec describes the cluster's network for n ranks as a serializable
	// platform description (including its piece-wise-linear factor model),
	// which is what lets declarative sweeps target the cluster.
	Spec func(n int) *platform.Spec
}

// Platform materializes the cluster's network for n ranks, together with
// its piece-wise-linear factor model (nil without factors) — Spec(n), built.
func (c *Cluster) Platform(n int) (*platform.Platform, sim.NetworkModel, error) {
	return c.Spec(n).Build()
}

// RunResult is one emulated execution.
type RunResult struct {
	// Time is the wall-clock time of the run in seconds (the "real"
	// execution time of the paper's comparisons).
	Time float64
	// ComputeSeconds is the per-rank time spent outside MPI (application
	// compute plus in-application probe time) — what TAU reports as
	// exclusive application time. Calibration divides counters by it.
	ComputeSeconds []float64
	// Engine exposes the kernel counters of the emulation.
	Engine sim.Stats
}

// rateFor returns the effective compute rate of one rank.
func (c *Cluster) rateFor(w npb.Workload, rank int) float64 {
	rate := c.BaseRate
	if w.WorkingSet(rank) > c.L2Bytes {
		rate *= c.OutOfCacheFactor
	}
	if c.JitterAmp > 0 {
		u := stats.NewRNG(c.Seed).Fork(uint64(rank)).Float64()
		rate *= 1 - c.JitterAmp*u
	}
	return rate
}

// InstrConfig builds an acquisition configuration for this cluster,
// installing its measured -O3 factor for the class.
func (c *Cluster) InstrConfig(mode instrument.Mode, compile instrument.Compile, class npb.Class) instrument.Config {
	cfg := instrument.Config{Mode: mode, Compile: compile, Class: class, Costs: c.ProbeCosts}
	if s, ok := c.O3Scales[class]; ok {
		cfg.O3ScaleOverride = s
	}
	return cfg
}

// CacheResident reports whether every rank of the workload fits in L2.
func (c *Cluster) CacheResident(w npb.Workload) bool {
	for r := 0; r < w.Ranks(); r++ {
		if w.WorkingSet(r) > c.L2Bytes {
			return false
		}
	}
	return true
}

// Run emulates one execution of w built and instrumented as icfg describes,
// and returns its wall-clock time. Use instrument.Counters for the counter
// readings and instrument.Acquired for the trace the run would produce.
func (c *Cluster) Run(w npb.Workload, icfg instrument.Config) (*RunResult, error) {
	n := w.Ranks()
	if n > c.Hosts {
		return nil, fmt.Errorf("ground: %s has %d nodes, workload needs %d", c.Name, c.Hosts, n)
	}
	plat, model, err := c.Platform(n)
	if err != nil {
		return nil, err
	}
	var opts []sim.Option
	if model != nil {
		opts = append(opts, sim.WithNetworkModel(model))
	}
	engine := sim.NewEngine(plat, opts...)
	world, err := mpi.NewWorld(engine, plat.Hosts()[:n], c.MPI)
	if err != nil {
		return nil, err
	}
	busy := make([]float64, n)
	for rank := 0; rank < n; rank++ {
		stream, err := w.Rank(rank)
		if err != nil {
			return nil, err
		}
		world.SpawnProg(rank, c.rankFeed(world, rank, c.rateFor(w, rank), stream, icfg, &busy[rank]))
	}
	if err := engine.Run(); err != nil {
		return nil, fmt.Errorf("ground: emulating %s on %s: %w", w.Name(), c.Name, err)
	}
	return &RunResult{Time: engine.Now(), ComputeSeconds: busy, Engine: engine.Stats()}, nil
}

// rankFeed lowers one rank's operation stream on the emulated machine. A
// compute operation runs at the rank's cache- and jitter-aware rate instead
// of the host speed, followed by its instrumentation probe time, and both
// count as busy time; an MPI operation pays its probe time and is then
// lowered exactly as SMPI replay lowers the same action. A malformed stream
// surfaces as a *core.TraceError.
func (c *Cluster) rankFeed(world *mpi.World, rank int, rate float64, stream npb.OpStream, icfg instrument.Config, busy *float64) sim.Feed {
	ops := world.TaskRank(rank)
	npending := 0
	var a trace.Action
	return func(p *sim.Prog) (bool, error) {
		ok, err := stream.Next(&a)
		if err != nil {
			return false, &core.TraceError{Backend: "ground", Rank: rank, Err: fmt.Errorf("reading stream: %w", err)}
		}
		if !ok {
			return false, nil
		}
		if a.Kind == trace.Compute {
			base, _, probeTime := icfg.ComputeCost(a.Instructions, stream.Calls())
			if base > 0 {
				p.Sleep(base / rate)
			}
			if probeTime > 0 {
				p.Sleep(probeTime)
			}
			*busy += base/rate + probeTime
			return true, nil
		}
		if a.Kind != trace.Init && a.Kind != trace.Finalize {
			if _, probeTime := icfg.MPICost(); probeTime > 0 {
				p.Sleep(probeTime)
			}
		}
		if err := core.Lower(ops, p, &a, &npending); err != nil {
			return false, &core.TraceError{Backend: "ground", Rank: rank, Kind: a.Kind, Err: err}
		}
		return true, nil
	}
}
