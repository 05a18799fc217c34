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

// OpStream is one rank's operation stream: a trace.Stream whose actions
// each also carry the number of application-level function calls they
// stand for. Next fills the caller's record, as every trace.Stream does.
type OpStream interface {
	trace.Stream
	// Calls is the number of instrumented application function calls
	// attributable to the action Next last yielded: callsPerPoint * points
	// for compute segments, 1 for MPI calls. It is valid only after Next
	// reported an action.
	Calls() float64
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

// phaser is a model's side of its rank streams: phase appends phase i of
// rank s.rank's operations to s (set-up, then one phase per iteration,
// then teardown).
type phaser interface {
	phase(s *stream, i int)
}

// stream is the operation stream of every model. It generates one phase of
// the rank's operations at a time, so replaying a 64-rank instance never
// materializes millions of operations at once.
type stream struct {
	gen    phaser
	rank   int
	phases int // phases in the stream
	next   int // next phase to generate
	buf    []buffered
	pos    int
}

// buffered is one generated operation: its action and its call count.
type buffered struct {
	trace.Action
	calls float64
}

// newStream opens rank's stream of a model of ranks processes whose
// operations come in the given number of phases.
func newStream(gen phaser, rank, ranks, phases int) (OpStream, error) {
	if rank < 0 || rank >= ranks {
		return nil, fmt.Errorf("npb: rank %d out of range [0,%d)", rank, ranks)
	}
	return &stream{gen: gen, rank: rank, phases: phases}, nil
}

// Next implements trace.Stream.
func (s *stream) Next(a *trace.Action) (bool, error) {
	for s.pos == len(s.buf) {
		if s.next == s.phases {
			return false, nil
		}
		s.buf, s.pos = s.buf[:0], 0
		s.gen.phase(s, s.next)
		s.next++
	}
	*a = s.buf[s.pos].Action
	s.pos++
	return true, nil
}

// Calls implements OpStream.
func (s *stream) Calls() float64 { return s.buf[s.pos-1].calls }

// emit appends one operation of the rank to the phase being generated and
// returns its action, for the fields emit does not set. It fills the new
// entry in place: appending a built entry would copy it once more.
func (s *stream) emit(kind trace.Kind, instr, bytes float64, peer int, calls float64) *trace.Action {
	s.buf = append(s.buf, buffered{})
	b := &s.buf[len(s.buf)-1]
	b.Rank, b.Kind, b.Instructions, b.Bytes, b.Peer, b.calls = s.rank, kind, instr, bytes, peer, calls
	return &b.Action
}

// workloadProvider exposes a workload's streams without their call counts:
// the "perfect" (coarse-instrumentation) trace of the workload.
type workloadProvider struct{ w Workload }

// AsProvider exposes a workload's exact action streams as a trace.Provider.
func AsProvider(w Workload) trace.Provider { return workloadProvider{w} }

func (p workloadProvider) NumRanks() int { return p.w.Ranks() }

func (p workloadProvider) Rank(rank int) (trace.Stream, error) {
	ops, err := p.w.Rank(rank)
	if err != nil {
		return nil, err
	}
	return trace.Checked(ops, "", rank, p.w.Ranks()), nil
}
