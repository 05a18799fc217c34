package npb

import (
	"fmt"
	"math"

	"tireplay/internal/trace"
)

// CG models the NPB conjugate-gradient kernel: an irregular sparse
// matrix-vector product whose communication pattern — recursive-halving
// reductions across process rows plus scalar allreduces — is very different
// from LU's wavefront. The paper's future work mentions assessing the
// framework on other applications; CG is the second workload our examples
// and extension benchmarks use.
type CG struct {
	Class Class
	Procs int
	// Iterations overrides the class niter when positive.
	Iterations int

	n, nzRow, niter int
}

// cgParams returns (n, nonzeros-per-row, niter) for a class.
func cgParams(c Class) (int, int, int, error) {
	switch c {
	case ClassS:
		return 1400, 7, 15, nil
	case ClassW:
		return 7000, 8, 15, nil
	case ClassA:
		return 14000, 11, 15, nil
	case ClassB:
		return 75000, 13, 75, nil
	case ClassC:
		return 150000, 15, 75, nil
	case ClassD:
		return 1500000, 21, 100, nil
	}
	return 0, 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// CG instruction economics (per inner conjugate-gradient iteration).
const (
	// cgInnerIters is the number of CG iterations per outer step.
	cgInnerIters = 25
	// InstrPerNonzero covers the sparse matvec.
	InstrPerNonzero = 10
	// InstrPerRowVector covers the vector updates (axpy, dot products).
	InstrPerRowVector = 24
	// cgCallsPerRow is the instrumented-call density per matrix row.
	cgCallsPerRow = 0.6
)

// NewCG validates and returns a CG instance. Like LU, CG requires a
// power-of-two process count.
func NewCG(class Class, procs, iterations int) (*CG, error) {
	n, nzRow, niter, err := cgParams(class)
	if err != nil {
		return nil, err
	}
	if iterations > 0 {
		niter = iterations
	}
	if _, _, err := grid2D(procs); err != nil {
		return nil, err
	}
	return &CG{Class: class, Procs: procs, Iterations: iterations,
		n: n, nzRow: nzRow, niter: niter}, nil
}

// Name implements Workload.
func (c *CG) Name() string { return fmt.Sprintf("CG %s-%d", c.Class, c.Procs) }

// Ranks implements Workload.
func (c *CG) Ranks() int { return c.Procs }

// rowsPerRank is the rank's share of matrix rows.
func (c *CG) rowsPerRank() float64 { return float64(c.n) / float64(c.Procs) }

// WorkingSet implements Workload: the rank's matrix slice plus vectors.
func (c *CG) WorkingSet(rank int) float64 {
	return c.rowsPerRank() * float64(c.nzRow*12+4*8)
}

// innerInstr is the compute volume of one inner CG iteration.
func (c *CG) innerInstr() float64 {
	nnz := c.rowsPerRank() * float64(c.nzRow)
	return InstrPerNonzero*nnz + InstrPerRowVector*c.rowsPerRank()
}

// BaseInstructions implements Workload.
func (c *CG) BaseInstructions(rank int) float64 {
	return float64(c.niter) * cgInnerIters * c.innerInstr()
}

// Rank implements Workload: init, the outer iterations, finalize.
func (c *CG) Rank(rank int) (OpStream, error) { return newStream(c, rank, c.Procs, c.niter+2) }

func (c *CG) phase(s *stream, i int) {
	switch {
	case i == 0:
		s.emit(trace.Init, 0, 0, -1, 0)
	case i <= c.niter:
		c.outer(s)
	default:
		s.emit(trace.Finalize, 0, 0, -1, 0)
	}
}

func (c *CG) outer(s *stream) {
	calls := cgCallsPerRow * c.rowsPerRank()
	levels := int(math.Round(math.Log2(float64(c.Procs))))
	segBytes := 8 * c.rowsPerRank()
	for inner := 0; inner < cgInnerIters; inner++ {
		s.emit(trace.Compute, c.innerInstr(), 0, -1, calls)
		// Reduction across the exchange dimension: recursive halving,
		// irecv/send/wait against XOR partners.
		for l := 0; l < levels; l++ {
			partner := s.rank ^ (1 << l)
			s.emit(trace.IRecv, 0, segBytes, partner, 1)
			s.emit(trace.Send, 0, segBytes, partner, 1)
			s.emit(trace.Wait, 0, 0, -1, 1)
		}
		// rho and alpha dot products.
		s.emit(trace.AllReduce, 0, 8, -1, 1)
		s.emit(trace.AllReduce, 0, 8, -1, 1)
	}
	// Residual norm of the outer step.
	s.emit(trace.AllReduce, 0, 8, -1, 1)
}

var _ Workload = (*CG)(nil)
