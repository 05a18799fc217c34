// Package instrument models the trace-acquisition tool chain of the paper:
// TAU/PDT instrumentation of the application and the compiler optimization
// level. Both distort the two quantities the time-independent traces are
// built from — wall-clock time (Tables 1 and 2) and the hardware instruction
// counter (Figures 1, 2, 4 and 5) — and the whole point of Sections 3.1/3.2
// is to choose a combination that distorts them as little as possible.
//
// Three instrumentation modes are modelled:
//
//   - Coarse: hand-inserted counter reads at the boundaries of the studied
//     section only (the reference the paper compares against in the counter
//     discrepancy experiments);
//   - Fine: TAU's default automatic instrumentation — a probe on *every*
//     application function call plus call-path bookkeeping on each MPI
//     event (the paper's first implementation);
//   - Minimal: TAU with the exclude-all selective-instrumentation file of
//     Section 3.2 — probes fire only when entering and exiting MPI
//     functions.
//
// The compile model captures -O0 vs -O3: optimization scales the
// application's base instruction count (and hence compute time) down, while
// probe instructions, which live in pre-built libraries, are unaffected.
package instrument

import (
	"fmt"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

// Mode is the instrumentation granularity.
type Mode int

// Instrumentation modes.
const (
	// None is the original, uninstrumented application.
	None Mode = iota
	// Coarse reads the hardware counter at section boundaries only.
	Coarse
	// Minimal instruments MPI function boundaries only (selective TAU).
	Minimal
	// Fine instruments every application function call (default TAU).
	Fine
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Coarse:
		return "coarse"
	case Minimal:
		return "minimal"
	case Fine:
		return "fine"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Compile is the optimization level of the build.
type Compile int

// Compile levels.
const (
	O0 Compile = iota
	O3
)

func (c Compile) String() string {
	if c == O3 {
		return "-O3"
	}
	return "-O0"
}

// Costs parameterizes the instrumentation machinery. The defaults are tuned
// so the model reproduces the paper's measured ranges (see EXPERIMENTS.md).
type Costs struct {
	// AppProbeInstr is the number of instructions one application-function
	// probe adds to the counter (Fine mode only).
	AppProbeInstr float64
	// AppProbeTime is the wall-clock cost of one application-function probe
	// in seconds (Fine mode only). Probes are cheap straight-line library
	// code, so their time cost is far below base-instruction parity.
	AppProbeTime float64
	// MPIProbeInstrFine / MPIProbeInstrMinimal are the instructions one MPI
	// event adds to the counter: wrapper entry/exit, counter reads, event
	// record construction — plus full call-path building in Fine mode.
	MPIProbeInstrFine    float64
	MPIProbeInstrMinimal float64
	// MPIEventTimeFine / MPIEventTimeMinimal are the wall-clock costs per
	// MPI event (dominated by trace buffering and flushing).
	MPIEventTimeFine    float64
	MPIEventTimeMinimal float64
	// CoarseSectionInstr is the one-off counter cost of the hand-inserted
	// reads in Coarse mode.
	CoarseSectionInstr float64
}

// DefaultCosts is the tuned cost model.
var DefaultCosts = Costs{
	AppProbeInstr:        200,
	AppProbeTime:         55e-9,
	MPIProbeInstrFine:    9000,
	MPIProbeInstrMinimal: 5500,
	MPIEventTimeFine:     30e-6,
	MPIEventTimeMinimal:  15e-6,
	CoarseSectionInstr:   2000,
}

// O3Scale returns the factor the base instruction count shrinks by when the
// class is compiled with -O3 (loop unrolling, vectorization, inlining). The
// per-class values are derived from the paper's Table 2 time ratios.
func O3Scale(class npb.Class) float64 {
	switch class {
	case npb.ClassC:
		return 0.76
	default:
		return 0.82
	}
}

// Config is one acquisition setup: instrumentation mode, compile level, and
// the class being compiled (which fixes the -O3 factor).
type Config struct {
	Mode    Mode
	Compile Compile
	Class   npb.Class
	// O3ScaleOverride replaces the class default -O3 factor when positive.
	// Optimization gains depend on the compiler/ISA pair, so the cluster
	// models carry their own measured factors.
	O3ScaleOverride float64
	// Costs overrides DefaultCosts when non-nil.
	Costs *Costs
}

func (c Config) costs() Costs {
	if c.Costs != nil {
		return *c.Costs
	}
	return DefaultCosts
}

func (c Config) String() string {
	return fmt.Sprintf("%s,%s", c.Mode, c.Compile)
}

// compileScale is the factor applied to base instructions.
func (c Config) compileScale() float64 {
	if c.Compile != O3 {
		return 1
	}
	if c.O3ScaleOverride > 0 {
		return c.O3ScaleOverride
	}
	return O3Scale(c.Class)
}

// ComputeCost evaluates a compute segment of instr base instructions
// spanning calls application function calls under this configuration.
// It returns the scaled base instruction count (what actually executes of
// the application), the counted instructions (what the hardware counter
// reports: base plus probe instructions), and the probe wall-time added to
// the segment.
func (c Config) ComputeCost(instr, calls float64) (base, counted, probeTime float64) {
	base = instr * c.compileScale()
	counted = base
	if c.Mode == Fine {
		k := c.costs()
		counted += k.AppProbeInstr * calls
		probeTime = k.AppProbeTime * calls
	}
	return base, counted, probeTime
}

// MPICost evaluates one MPI event: the extra counted instructions and the
// probe wall-time attributable to it.
func (c Config) MPICost() (extraInstr, probeTime float64) {
	k := c.costs()
	switch c.Mode {
	case Fine:
		return k.MPIProbeInstrFine, k.MPIEventTimeFine
	case Minimal:
		return k.MPIProbeInstrMinimal, k.MPIEventTimeMinimal
	default:
		return 0, 0
	}
}

// Counters streams the whole workload and returns the per-rank hardware
// instruction counter readings an acquisition run with this configuration
// would measure. Mode None returns an error: the original build exposes no
// counters.
func Counters(w npb.Workload, cfg Config) ([]float64, error) {
	if cfg.Mode == None {
		return nil, fmt.Errorf("instrument: the uninstrumented build has no counters")
	}
	out := make([]float64, w.Ranks())
	var a trace.Action
	for rank := 0; rank < w.Ranks(); rank++ {
		st, err := w.Rank(rank)
		if err != nil {
			return nil, err
		}
		total := cfg.costs().CoarseSectionInstr // section-boundary reads
		for {
			ok, err := st.Next(&a)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if a.Kind == trace.Compute {
				_, counted, _ := cfg.ComputeCost(a.Instructions, st.Calls())
				total += counted
			} else if a.Kind != trace.Init && a.Kind != trace.Finalize {
				extra, _ := cfg.MPICost()
				total += extra
			}
		}
		out[rank] = total
	}
	return out, nil
}

// Acquired exposes the time-independent trace an instrumented run of w
// produces: compute volumes are the per-segment *counter* readings (base
// instructions inflated by the probes firing inside and around the
// segment), which is exactly how instrumentation error propagates into the
// replay (Section 2.2: "it will likely simulate something closer to the
// instrumented version than the original application").
type Acquired struct {
	W   npb.Workload
	Cfg Config
}

// NumRanks implements trace.Provider.
func (a Acquired) NumRanks() int { return a.W.Ranks() }

// Rank implements trace.Provider.
func (a Acquired) Rank(rank int) (trace.Stream, error) {
	ops, err := a.W.Rank(rank)
	if err != nil {
		return nil, err
	}
	if a.Cfg.Mode == None {
		return nil, fmt.Errorf("instrument: cannot acquire a trace from an uninstrumented run")
	}
	return trace.Checked(&acquiredStream{ops: ops, cfg: a.Cfg}, "", rank, a.W.Ranks()), nil
}

type acquiredStream struct {
	ops npb.OpStream
	cfg Config
	// pendingExtra accumulates MPI probe instructions to be charged to the
	// next compute segment (the counter read happens on MPI entry, so
	// wrapper instructions land in the preceding inter-MPI interval; we
	// fold them forward, which is equivalent in total).
	pendingExtra float64
}

// Next implements trace.Stream, rewriting the operation stream's record in
// place.
func (s *acquiredStream) Next(a *trace.Action) (bool, error) {
	ok, err := s.ops.Next(a)
	if err != nil || !ok {
		return false, err
	}
	if a.Kind == trace.Compute {
		_, counted, _ := s.cfg.ComputeCost(a.Instructions, s.ops.Calls())
		a.Instructions = counted + s.pendingExtra
		s.pendingExtra = 0
	} else if a.Kind != trace.Init && a.Kind != trace.Finalize {
		extra, _ := s.cfg.MPICost()
		s.pendingExtra += extra
	}
	return true, nil
}
