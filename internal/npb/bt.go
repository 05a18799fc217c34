package npb

import (
	"fmt"

	"tireplay/internal/trace"
)

// BT models the NPB block-tridiagonal solver on a square process grid with
// an x-y pencil decomposition: each iteration rebuilds the right-hand side,
// exchanges the four pencil faces with nonblocking operations drained out
// of order (waitsome + waitall — the copy_faces pattern), then runs
// forward/backward line-solve sweeps across the grid rows and columns. The
// z direction is local to the pencil, so its sweep is pure compute.
type BT struct {
	Class Class
	Procs int
	// Iterations overrides the class niter when positive.
	Iterations int

	niter int
	pencil
}

// btParams returns (grid dimension, iterations) for a class.
func btParams(c Class) (int, int, error) {
	switch c {
	case ClassS:
		return 12, 60, nil
	case ClassW:
		return 24, 200, nil
	case ClassA:
		return 64, 200, nil
	case ClassB:
		return 102, 200, nil
	case ClassC:
		return 162, 200, nil
	case ClassD:
		return 408, 250, nil
	}
	return 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// BT instruction economics (per grid point per iteration).
const (
	InstrBTRHS      = 120
	InstrBTSolve    = 70 // per direction, split over the two sweep halves
	InstrBTAdd      = 12
	btCallsPerPoint = 0.15
	// btVars is the number of solution components per point; btLineBytes the
	// boundary payload of one line-solve interface point (a 5x5 block plus
	// the rhs vector).
	btVars      = 5
	btLineBytes = 8 * (btVars*btVars + btVars)
)

// gridSquare factors a square process count into its side, as BT and SP
// require ("the number of processes must be a perfect square").
func gridSquare(p int) (int, error) {
	if p <= 0 {
		return 0, fmt.Errorf("npb: process count must be positive, got %d", p)
	}
	q := 1
	for q*q < p {
		q++
	}
	if q*q != p {
		return 0, fmt.Errorf("npb: BT/SP require a square process count, got %d", p)
	}
	return q, nil
}

// NewBT validates and returns a BT instance.
func NewBT(class Class, procs, iterations int) (*BT, error) {
	n, niter, err := btParams(class)
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
		return nil, fmt.Errorf("npb: BT %s on %d processes exceeds the %d^3 grid", string(class), procs, n)
	}
	return &BT{Class: class, Procs: procs, Iterations: iterations, niter: niter, pencil: pencil{n, q}}, nil
}

// Name implements Workload.
func (b *BT) Name() string { return fmt.Sprintf("BT %s-%d", b.Class, b.Procs) }

// Ranks implements Workload.
func (b *BT) Ranks() int { return b.Procs }

// WorkingSet implements Workload: solution, rhs, and the three block
// Jacobians of the line solves.
func (b *BT) WorkingSet(rank int) float64 {
	return 8 * float64(2*btVars+3*btVars*btVars) * b.localPoints(rank)
}

// BaseInstructions implements Workload.
func (b *BT) BaseInstructions(rank int) float64 {
	perPoint := float64(InstrBTRHS + 3*InstrBTSolve + InstrBTAdd)
	return float64(b.niter) * perPoint * b.localPoints(rank)
}

// Rank implements Workload: init, the iterations, the verification
// teardown.
func (b *BT) Rank(rank int) (OpStream, error) { return newStream(b, rank, b.Procs, b.niter+2) }

func (b *BT) phase(s *stream, i int) {
	switch {
	case i == 0:
		s.emit(trace.Init, 0, 0, -1, 0)
	case i <= b.niter:
		pts := b.localPoints(s.rank)
		s.emit(trace.Compute, InstrBTRHS*pts, 0, -1, btCallsPerPoint*pts)
		b.copyFaces(s)
		// x and y line solves sweep across the grid; z is pencil-local.
		b.sweep(s, 0, btLineBytes, InstrBTSolve, btCallsPerPoint)
		b.sweep(s, 1, btLineBytes, InstrBTSolve, btCallsPerPoint)
		s.emit(trace.Compute, InstrBTSolve*pts, 0, -1, btCallsPerPoint*pts)
		s.emit(trace.Compute, InstrBTAdd*pts, 0, -1, btCallsPerPoint*pts)
	default:
		s.emit(trace.AllReduce, 0, 8*btVars, -1, 1) // verification norms
		s.emit(trace.Finalize, 0, 0, -1, 0)
	}
}

// copyFaces posts the four face transfers, then drains them out of order:
// a waitsome for the first half, a waitall for the rest.
func (b *BT) copyFaces(s *stream) {
	posted := b.postFaces(s, btVars)
	if posted == 0 {
		return
	}
	if half := posted / 2; half > 0 {
		s.emit(trace.WaitSome, 0, 0, -1, 1).Count = half
	}
	s.emit(trace.WaitAll, 0, 0, -1, 1)
}

// pencil is the x-y pencil decomposition BT and SP share: a q x q process
// grid over the n^3 grid, each rank's pencil spanning all of z.
type pencil struct{ n, q int }

// coords returns the rank's position in the q x q grid.
func (p *pencil) coords(rank int) (ix, iy int) { return rank % p.q, rank / p.q }

// localDims returns the rank's pencil cross-section.
func (p *pencil) localDims(rank int) (nx, ny int) {
	ix, iy := p.coords(rank)
	return split(p.n, p.q, ix), split(p.n, p.q, iy)
}

// localPoints is the rank's grid-point count.
func (p *pencil) localPoints(rank int) float64 {
	nx, ny := p.localDims(rank)
	return float64(nx) * float64(ny) * float64(p.n)
}

// face is one of a pencil's four faces: the rank across it and its area in
// grid points.
type face struct {
	peer int
	area float64
}

// faces returns the rank's four faces, periodic in both grid directions:
// +x, -x, +y, -y.
func (p *pencil) faces(rank int) [4]face {
	ix, iy := p.coords(rank)
	nx, ny := p.localDims(rank)
	at := func(x, y int) int { return y*p.q + x }
	xArea, yArea := float64(ny)*float64(p.n), float64(nx)*float64(p.n)
	return [4]face{
		{at((ix+1)%p.q, iy), xArea},
		{at((ix-1+p.q)%p.q, iy), xArea},
		{at(ix, (iy+1)%p.q), yArea},
		{at(ix, (iy-1+p.q)%p.q), yArea},
	}
}

// postFaces posts a nonblocking receive for every face whose peer is
// another rank, then a nonblocking send, each of vars doubles per face
// point, and returns the number of requests posted.
func (p *pencil) postFaces(s *stream, vars float64) int {
	faces := p.faces(s.rank)
	posted := 0
	for _, kind := range [2]trace.Kind{trace.IRecv, trace.ISend} {
		for _, f := range faces {
			if f.peer != s.rank {
				s.emit(kind, 0, 8*vars*f.area, f.peer, 1)
				posted++
			}
		}
	}
	return posted
}

// sweep is one direction's line solve (dir 0 across x, 1 across y): a
// forward elimination pipelined toward higher grid coordinates, then the
// back substitution flowing the other way — the wavefront structure of
// the solve stages. lineBytes is the interface payload per line, and
// solveInstr and callsPerPoint the solve's compute per point.
func (p *pencil) sweep(s *stream, dir int, lineBytes, solveInstr, callsPerPoint float64) {
	ix, iy := p.coords(s.rank)
	nx, ny := p.localDims(s.rank)
	at := func(x, y int) int { return y*p.q + x }
	pos, lo, hi, width := ix, at(ix-1, iy), at(ix+1, iy), ny
	if dir == 1 {
		pos, lo, hi, width = iy, at(ix, iy-1), at(ix, iy+1), nx
	}
	ifaceBytes := lineBytes * float64(width) * float64(p.n)
	pts := p.localPoints(s.rank)
	half := solveInstr * pts / 2
	// Forward elimination.
	if pos > 0 {
		s.emit(trace.Recv, 0, 0, lo, 1)
	}
	s.emit(trace.Compute, half, 0, -1, callsPerPoint*pts/2)
	if pos < p.q-1 {
		s.emit(trace.Send, 0, ifaceBytes, hi, 1)
	}
	// Back substitution.
	if pos < p.q-1 {
		s.emit(trace.Recv, 0, 0, hi, 1)
	}
	s.emit(trace.Compute, half, 0, -1, callsPerPoint*pts/2)
	if pos > 0 {
		s.emit(trace.Send, 0, ifaceBytes, lo, 1)
	}
}

var _ Workload = (*BT)(nil)
