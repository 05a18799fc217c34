// Package npb models the NAS Parallel Benchmark applications used in the
// paper's evaluation as generators of per-rank operation streams. An
// operation stream is richer than a time-independent trace: besides the
// trace action (compute volumes, MPI calls) it carries the number of
// application-level function calls inside each compute segment, which the
// instrumentation model needs to compute counter inflation and probe time,
// and each workload exposes its per-rank hot working set for the cache
// model of Sections 2.3/3.4.
//
// The LU generator reproduces the published structure of NPB-LU (SSOR
// solver): a 2D pencil decomposition of the x-y plane, per-k-plane
// wavefront exchanges in the lower and upper triangular sweeps
// (exchange_1), full halo swaps after the right-hand-side computation
// (exchange_3, irecv/send/wait), and periodic residual-norm allreduces.
// Its instruction constants are calibrated against the paper's own counter
// measurements: 5125 instructions per grid-point iteration yields 1.70e11
// instructions per process for B-8 and 8.87e10 for C-64, the two figures
// quoted in Section 2.2.
package npb

import (
	"fmt"

	"tireplay/internal/trace"
)

// Op is one operation of a workload stream: a trace action plus the
// application-function-call count the instrumentation model consumes.
type Op struct {
	Action trace.Action
	// Calls is the number of instrumented application function calls
	// attributable to this operation: callsPerPoint * points for compute
	// segments, 1 for MPI calls.
	Calls float64
}

// OpStream is a pull-based stream of operations for one rank.
type OpStream interface {
	Next() (op Op, ok bool, err error)
}

// Workload is an application whose execution can be generated rank by rank.
type Workload interface {
	// Name is the instance label, e.g. "LU B-8".
	Name() string
	// Ranks is the number of MPI processes.
	Ranks() int
	// Rank returns a fresh operation stream for one rank.
	Rank(rank int) (OpStream, error)
	// WorkingSet returns the rank's hot working set in bytes, the quantity
	// compared against the L2 capacity by the cache model.
	WorkingSet(rank int) float64
	// BaseInstructions returns the analytic total of compute instructions
	// the rank executes (uninstrumented, -O0 reference build).
	BaseInstructions(rank int) float64
}

// Class is an NPB problem class.
type Class byte

// NPB classes.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
	ClassD Class = 'D'
)

// luSize returns the LU cubic grid dimension for the class.
func (c Class) luSize() (int, error) {
	switch c {
	case ClassS:
		return 12, nil
	case ClassW:
		return 33, nil
	case ClassA:
		return 64, nil
	case ClassB:
		return 102, nil
	case ClassC:
		return 162, nil
	case ClassD:
		return 408, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// luIterations returns the published itmax for the class.
func (c Class) luIterations() (int, error) {
	switch c {
	case ClassS:
		return 50, nil
	case ClassW, ClassD:
		return 300, nil
	case ClassA, ClassB, ClassC:
		return 250, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(c))
}

func (c Class) String() string { return string(c) }

// ParseClass converts a one-letter class name.
func ParseClass(s string) (Class, error) {
	if len(s) != 1 {
		return 0, fmt.Errorf("npb: bad class %q", s)
	}
	c := Class(s[0])
	if _, err := c.luSize(); err != nil {
		return 0, err
	}
	return c, nil
}

// grid2D computes the px x py process grid NPB-LU uses: P must be a power
// of two; the x dimension gets the larger factor.
func grid2D(p int) (px, py int, err error) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, 0, fmt.Errorf("npb: LU requires a power-of-two process count, got %d", p)
	}
	k := 0
	for 1<<k < p {
		k++
	}
	px = 1 << ((k + 1) / 2)
	py = p / px
	return px, py, nil
}

// split gives the idx-th share of n divided into parts (remainder spread
// over the first ranks, as NPB does).
func split(n, parts, idx int) int {
	base := n / parts
	if idx < n%parts {
		return base + 1
	}
	return base
}

// workloadProvider adapts a Workload into a trace.Provider by dropping the
// call counts — the "perfect" (coarse-instrumentation) trace of the
// workload.
type workloadProvider struct{ w Workload }

// AsProvider exposes a workload's exact action streams as a trace.Provider.
func AsProvider(w Workload) trace.Provider { return workloadProvider{w} }

func (p workloadProvider) NumRanks() int { return p.w.Ranks() }

func (p workloadProvider) Rank(rank int) (trace.Stream, error) {
	ops, err := p.w.Rank(rank)
	if err != nil {
		return nil, err
	}
	return trace.Checked(opActionStream{ops}, "", rank, p.w.Ranks()), nil
}

type opActionStream struct{ ops OpStream }

func (s opActionStream) Next(a *trace.Action) (bool, error) {
	op, ok, err := s.ops.Next()
	if err != nil || !ok {
		return false, err
	}
	*a = op.Action
	return true, nil
}
