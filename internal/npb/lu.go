package npb

import (
	"fmt"

	"tireplay/internal/trace"
)

// Instruction economics of the LU model, calibrated against the counter
// values the paper reports in Section 2.2 (1.70e11 instructions/process for
// B-8, 8.87e10 for C-64, both at 250 iterations): 5125 instructions per
// grid-point iteration, split across the four compute phases of one SSOR
// step.
const (
	// InstrRHSX and InstrRHSY are the right-hand-side phases (per point per
	// iteration), each followed by an exchange_3 halo swap.
	InstrRHSX = 913
	InstrRHSY = 912
	// InstrBLTS and InstrBUTS are the lower/upper triangular wavefront
	// solves (per point per iteration).
	InstrBLTS = 1650
	InstrBUTS = 1650
	// InstrPerPointIter is the per-point-per-iteration total.
	InstrPerPointIter = InstrRHSX + InstrRHSY + InstrBLTS + InstrBUTS
	// InstrSetupPerPoint is the one-time initialization cost (setbv, setiv,
	// erhs) per grid point.
	InstrSetupPerPoint = 500
	// CallsPerPoint is the density of instrumented application function
	// calls per grid-point iteration; the fine-grain TAU instrumentation
	// fires a probe on every one of them.
	CallsPerPoint = 2.56
	// BytesPerPlanePoint sizes the hot working set: the per-point bytes of
	// the arrays touched repeatedly while sweeping one k-plane (solution,
	// RHS, and the four 5x5 block-Jacobian arrays). 500 B/point makes A-4
	// cache-resident in a 1 MB L2 while B-4, C-4 and C-8 spill, and keeps
	// every instance of the study resident in graphene's 2 MB L2 — matching
	// Sections 2.3 and 3.4.
	BytesPerPlanePoint = 500
	// doubleBytes * 5 solution components per boundary point.
	wordsPerBoundaryPoint = 5
	doubleBytes           = 8
	// ghost planes exchanged by exchange_3.
	ghostPlanes = 2
	// normBytes is the payload of a residual-norm allreduce (5 doubles).
	normBytes = 40
)

// LU is an instance of the NPB LU benchmark: class x process count.
type LU struct {
	Class Class
	Procs int
	// Iterations overrides the class itmax when positive. The SSOR loop is
	// steady-state, so experiments may run fewer iterations and extrapolate
	// linearly (see DESIGN.md).
	Iterations int

	n, px, py, itmax int
}

// NewLU validates and returns an LU instance.
func NewLU(class Class, procs int, iterations int) (*LU, error) {
	n, err := class.luSize()
	if err != nil {
		return nil, err
	}
	itmax, err := class.luIterations()
	if err != nil {
		return nil, err
	}
	if iterations > 0 {
		itmax = iterations
	}
	px, py, err := grid2D(procs)
	if err != nil {
		return nil, err
	}
	if px > n || py > n {
		return nil, fmt.Errorf("npb: LU %s on %d processes: grid %dx%d exceeds problem size %d",
			string(class), procs, px, py, n)
	}
	return &LU{Class: class, Procs: procs, Iterations: iterations,
		n: n, px: px, py: py, itmax: itmax}, nil
}

// Name implements Workload ("LU B-8" style, matching the paper's instance
// names).
func (l *LU) Name() string { return fmt.Sprintf("LU %s-%d", l.Class, l.Procs) }

// Ranks implements Workload.
func (l *LU) Ranks() int { return l.Procs }

// ItMax returns the number of SSOR iterations the instance runs.
func (l *LU) ItMax() int { return l.itmax }

// Grid returns the process grid dimensions (px across x, py across y).
func (l *LU) Grid() (px, py int) { return l.px, l.py }

// coords maps a rank to its (ix, iy) grid position.
func (l *LU) coords(rank int) (ix, iy int) { return rank % l.px, rank / l.px }

// instrScale is a per-class correction of the per-point instruction cost.
// The paper's measurements imply C executes ~4% more instructions per
// point-iteration than B (8.87e10 per process at C-64 vs 1.70e11 at B-8):
// larger grids spend relatively more in boundary and pipeline prologue
// code. Classes without published counters use 1.
func (l *LU) instrScale() float64 {
	if l.Class == ClassC {
		return 1.042
	}
	return 1
}

// Dims returns the rank's pencil dimensions (full z extent).
func (l *LU) Dims(rank int) (nxLoc, nyLoc, nz int) {
	ix, iy := l.coords(rank)
	return split(l.n, l.px, ix), split(l.n, l.py, iy), l.n
}

// neighbors returns the wavefront neighbors of rank (-1 when absent):
// north = ix-1, south = ix+1, west = iy-1, east = iy+1.
func (l *LU) neighbors(rank int) (north, south, west, east int) {
	ix, iy := l.coords(rank)
	north, south, west, east = -1, -1, -1, -1
	if ix > 0 {
		north = rank - 1
	}
	if ix < l.px-1 {
		south = rank + 1
	}
	if iy > 0 {
		west = rank - l.px
	}
	if iy < l.py-1 {
		east = rank + l.px
	}
	return
}

// WorkingSet implements Workload: the per-plane hot arrays of the rank's
// pencil.
func (l *LU) WorkingSet(rank int) float64 {
	nxLoc, nyLoc, _ := l.Dims(rank)
	return float64(BytesPerPlanePoint) * float64(nxLoc) * float64(nyLoc)
}

// points returns the rank's grid points (pencil volume).
func (l *LU) points(rank int) float64 {
	nxLoc, nyLoc, nz := l.Dims(rank)
	return float64(nxLoc) * float64(nyLoc) * float64(nz)
}

// BaseInstructions implements Workload. It must stay consistent with what
// the stream emits; a property test enforces the equality.
func (l *LU) BaseInstructions(rank int) float64 {
	pts := l.points(rank)
	perIter := float64(InstrPerPointIter) * pts
	// Norm computations: one in setup, one in teardown, one per norm
	// iteration of the SSOR loop.
	norms := float64(l.normIterations()+2) * normComputeInstr(pts)
	return l.instrScale() * (float64(InstrSetupPerPoint)*pts + float64(l.itmax)*perIter + norms)
}

// normIterations counts the iterations at which a residual norm (and its
// allreduce) happens: the first, plus every inorm-th; NPB sets inorm=itmax
// so in practice the first and the last, plus the setup and verification
// norms.
func (l *LU) normIterations() int {
	count := 0
	for it := 1; it <= l.itmax; it++ {
		if l.isNormIteration(it) {
			count++
		}
	}
	return count
}

func (l *LU) isNormIteration(it int) bool {
	return it == 1 || it == l.itmax
}

func normComputeInstr(points float64) float64 {
	// l2norm touches every point once with a handful of flops.
	return 8 * points
}

// Rank implements Workload: set-up, the SSOR iterations, teardown.
func (l *LU) Rank(rank int) (OpStream, error) { return newStream(l, rank, l.Procs, l.itmax+2) }

func (l *LU) phase(s *stream, i int) {
	switch {
	case i == 0:
		l.setup(s)
	case i <= l.itmax:
		l.iteration(s, i)
	default:
		l.teardown(s)
	}
}

func (l *LU) compute(s *stream, instr, calls float64) {
	if instr > 0 {
		s.emit(trace.Compute, l.instrScale()*instr, 0, -1, calls)
	}
}

// setup models init: parameter broadcasts, initial state computation, one
// halo swap and the initial residual norm.
func (l *LU) setup(s *stream) {
	pts := l.points(s.rank)
	s.emit(trace.Init, 0, 0, -1, 0)
	s.emit(trace.Bcast, 0, normBytes, -1, 1)
	s.emit(trace.Bcast, 0, normBytes, -1, 1)
	l.compute(s, float64(InstrSetupPerPoint)*pts, CallsPerPoint*pts/10)
	l.exchange3(s)
	l.compute(s, normComputeInstr(pts), pts/10)
	s.emit(trace.AllReduce, 0, normBytes, -1, 1)
}

// exchange3 is the full halo swap of the RHS computation: ghost planes
// to/from the four neighbors, posted as irecv / send / wait (the NPB
// exchange_3 pattern), first in x then in y.
func (l *LU) exchange3(s *stream) {
	nxLoc, nyLoc, nz := l.Dims(s.rank)
	north, south, west, east := l.neighbors(s.rank)
	xBytes := float64(ghostPlanes * wordsPerBoundaryPoint * doubleBytes * nyLoc * nz)
	yBytes := float64(ghostPlanes * wordsPerBoundaryPoint * doubleBytes * nxLoc * nz)
	swap := func(a, b int, bytes float64) {
		var nrecv int
		if a >= 0 {
			s.emit(trace.IRecv, 0, bytes, a, 1)
			nrecv++
		}
		if b >= 0 {
			s.emit(trace.IRecv, 0, bytes, b, 1)
			nrecv++
		}
		if a >= 0 {
			s.emit(trace.Send, 0, bytes, a, 1)
		}
		if b >= 0 {
			s.emit(trace.Send, 0, bytes, b, 1)
		}
		if nrecv > 0 {
			s.emit(trace.WaitAll, 0, 0, -1, 1)
		}
	}
	swap(north, south, xBytes)
	swap(west, east, yBytes)
}

// iteration generates one SSOR time step.
func (l *LU) iteration(s *stream, it int) {
	nxLoc, nyLoc, nz := l.Dims(s.rank)
	planePts := float64(nxLoc) * float64(nyLoc)
	pts := planePts * float64(nz)
	north, south, west, east := l.neighbors(s.rank)
	nsBytes := float64(wordsPerBoundaryPoint * doubleBytes * nyLoc) // row along y
	weBytes := float64(wordsPerBoundaryPoint * doubleBytes * nxLoc) // column along x

	// Right-hand side with halo swaps.
	l.compute(s, float64(InstrRHSX)*pts, CallsPerPoint*pts*float64(InstrRHSX)/float64(InstrPerPointIter))
	l.exchange3(s)
	l.compute(s, float64(InstrRHSY)*pts, CallsPerPoint*pts*float64(InstrRHSY)/float64(InstrPerPointIter))

	planeCallsBLTS := CallsPerPoint * planePts * float64(InstrBLTS) / float64(InstrPerPointIter)
	planeCallsBUTS := CallsPerPoint * planePts * float64(InstrBUTS) / float64(InstrPerPointIter)

	// Lower-triangular wavefront: dependencies flow from north and west.
	for k := 0; k < nz; k++ {
		if north >= 0 {
			s.emit(trace.Recv, 0, nsBytes, north, 1)
		}
		if west >= 0 {
			s.emit(trace.Recv, 0, weBytes, west, 1)
		}
		l.compute(s, float64(InstrBLTS)*planePts, planeCallsBLTS)
		if south >= 0 {
			s.emit(trace.Send, 0, nsBytes, south, 1)
		}
		if east >= 0 {
			s.emit(trace.Send, 0, weBytes, east, 1)
		}
	}
	// Upper-triangular wavefront: reversed.
	for k := nz - 1; k >= 0; k-- {
		if south >= 0 {
			s.emit(trace.Recv, 0, nsBytes, south, 1)
		}
		if east >= 0 {
			s.emit(trace.Recv, 0, weBytes, east, 1)
		}
		l.compute(s, float64(InstrBUTS)*planePts, planeCallsBUTS)
		if north >= 0 {
			s.emit(trace.Send, 0, nsBytes, north, 1)
		}
		if west >= 0 {
			s.emit(trace.Send, 0, weBytes, west, 1)
		}
	}
	// Residual norm.
	if l.isNormIteration(it) {
		l.compute(s, normComputeInstr(pts), pts/10)
		s.emit(trace.AllReduce, 0, normBytes, -1, 1)
	}
}

// teardown models verification: error and surface-integral norms.
func (l *LU) teardown(s *stream) {
	pts := l.points(s.rank)
	l.compute(s, normComputeInstr(pts), pts/10)
	s.emit(trace.AllReduce, 0, normBytes, -1, 1)
	s.emit(trace.AllReduce, 0, normBytes, -1, 1)
	s.emit(trace.AllReduce, 0, normBytes, -1, 1)
	s.emit(trace.Finalize, 0, 0, -1, 0)
}

var _ Workload = (*LU)(nil)
