package npb

import (
	"fmt"

	"tireplay/internal/trace"
)

// SP models the NPB scalar-pentadiagonal solver: the same square-grid
// pencil decomposition and sweep structure as BT, but with scalar (not
// block) line systems — lighter compute and thinner interface payloads —
// and a face exchange drained one completion at a time with waitany,
// overlapping each arrival's unpack compute with the remaining transfers.
type SP struct {
	Class Class
	Procs int
	// Iterations overrides the class niter when positive.
	Iterations int

	niter int
	pencil
}

// spParams returns (grid dimension, iterations) for a class.
func spParams(c Class) (int, int, error) {
	switch c {
	case ClassS:
		return 12, 100, nil
	case ClassW:
		return 36, 400, nil
	case ClassA:
		return 64, 400, nil
	case ClassB:
		return 102, 400, nil
	case ClassC:
		return 162, 400, nil
	case ClassD:
		return 408, 500, nil
	}
	return 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// SP instruction economics (per grid point per iteration).
const (
	InstrSPRHS   = 80
	InstrSPSolve = 45 // per direction
	InstrSPAdd   = 10
	// InstrSPUnpack is the per-face-point unpack cost overlapped with the
	// remaining transfers after each waitany completion.
	InstrSPUnpack   = 4
	spCallsPerPoint = 0.12
	spVars          = 5
	// spLineBytes is the scalar pentadiagonal interface payload per line.
	spLineBytes = 8 * 2 * spVars
)

// NewSP validates and returns an SP instance.
func NewSP(class Class, procs, iterations int) (*SP, error) {
	n, niter, err := spParams(class)
	if err != nil {
		return nil, err
	}
	if iterations > 0 {
		niter = iterations
	}
	q, err := gridSquare(procs)
	if err != nil {
		return nil, err
	}
	if q > n {
		return nil, fmt.Errorf("npb: SP %s on %d processes exceeds the %d^3 grid", string(class), procs, n)
	}
	return &SP{Class: class, Procs: procs, Iterations: iterations, niter: niter, pencil: pencil{n, q}}, nil
}

// Name implements Workload.
func (sp *SP) Name() string { return fmt.Sprintf("SP %s-%d", sp.Class, sp.Procs) }

// Ranks implements Workload.
func (sp *SP) Ranks() int { return sp.Procs }

// WorkingSet implements Workload: solution, rhs, and the scalar
// pentadiagonal coefficient arrays.
func (sp *SP) WorkingSet(rank int) float64 {
	return 8 * float64(2*spVars+15) * sp.localPoints(rank)
}

// BaseInstructions implements Workload.
func (sp *SP) BaseInstructions(rank int) float64 {
	perPoint := float64(InstrSPRHS + 3*InstrSPSolve + InstrSPAdd)
	return float64(sp.niter) * perPoint * sp.localPoints(rank)
}

// Rank implements Workload: init, the iterations, the verification
// teardown.
func (sp *SP) Rank(rank int) (OpStream, error) { return newStream(sp, rank, sp.Procs, sp.niter+2) }

func (sp *SP) phase(s *stream, i int) {
	switch {
	case i == 0:
		s.emit(trace.Init, 0, 0, -1, 0)
	case i <= sp.niter:
		pts := sp.localPoints(s.rank)
		s.emit(trace.Compute, InstrSPRHS*pts, 0, -1, spCallsPerPoint*pts)
		sp.faceExchange(s)
		sp.sweep(s, 0, spLineBytes, InstrSPSolve, spCallsPerPoint)
		sp.sweep(s, 1, spLineBytes, InstrSPSolve, spCallsPerPoint)
		s.emit(trace.Compute, InstrSPSolve*pts, 0, -1, spCallsPerPoint*pts)
		s.emit(trace.Compute, InstrSPAdd*pts, 0, -1, spCallsPerPoint*pts)
	default:
		s.emit(trace.AllReduce, 0, 8*spVars, -1, 1)
		s.emit(trace.Finalize, 0, 0, -1, 0)
	}
}

// faceExchange posts the four face transfers and drains them one at a
// time: each waitany completion is followed by that face's unpack compute,
// overlapped with the transfers still in flight.
func (sp *SP) faceExchange(s *stream) {
	posted := sp.postFaces(s, spVars)
	if posted == 0 {
		return
	}
	var unpack float64
	for _, f := range sp.faces(s.rank) {
		if f.peer != s.rank {
			unpack += InstrSPUnpack * f.area
		}
	}
	perDrain := unpack / float64(posted)
	for i := 0; i < posted; i++ {
		s.emit(trace.WaitAny, 0, 0, -1, 1)
		s.emit(trace.Compute, perDrain, 0, -1, 1)
	}
}

var _ Workload = (*SP)(nil)
