package npb

import (
	"fmt"
	"math"

	"tireplay/internal/trace"
)

// FT models the NPB 3D fast-Fourier-transform kernel: each iteration
// evolves the spectrum and runs FFT passes separated by a global transpose.
// With a 1D slab decomposition the transpose is an all-to-all whose per-pair
// volumes are the products of both ranks' slab widths — uneven whenever the
// grid does not divide evenly by the process count — which makes FT the
// natural workload for the alltoallv action. The final checksum collection
// is an allgatherv of per-slab contributions.
type FT struct {
	Class Class
	Procs int
	// Iterations overrides the class niter when positive.
	Iterations int

	nx, ny, nz, niter int
}

// ftParams returns (nx, ny, nz, niter) for a class (the published FT grids).
func ftParams(c Class) (int, int, int, int, error) {
	switch c {
	case ClassS:
		return 64, 64, 64, 6, nil
	case ClassW:
		return 128, 128, 32, 6, nil
	case ClassA:
		return 256, 256, 128, 6, nil
	case ClassB:
		return 512, 256, 256, 20, nil
	case ClassC:
		return 512, 512, 512, 20, nil
	case ClassD:
		return 2048, 1024, 1024, 25, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// FT instruction economics (per complex grid point).
const (
	// InstrFTButterfly covers one point's share of a 1D FFT pass: ~5 log2 n
	// floating-point operations lowered to a few instructions each.
	InstrFTButterfly = 9
	// InstrFTEvolve covers the per-point spectrum evolution multiply.
	InstrFTEvolve   = 8
	ftCallsPerPoint = 0.05
	// ftComplexBytes is the storage of one double-complex grid point.
	ftComplexBytes = 16
)

// NewFT validates and returns an FT instance. The slab decomposition needs
// at least one plane per rank in both transposed dimensions, but — unlike
// the power-of-two workloads — any process count satisfying that works,
// precisely because the transpose volumes may be uneven.
func NewFT(class Class, procs, iterations int) (*FT, error) {
	nx, ny, nz, niter, err := ftParams(class)
	if err != nil {
		return nil, err
	}
	if iterations > 0 {
		niter = iterations
	}
	if procs < 1 {
		return nil, fmt.Errorf("npb: FT needs at least one process, got %d", procs)
	}
	if procs > nx || procs > ny {
		return nil, fmt.Errorf("npb: FT %s slab decomposition supports at most %d processes, got %d",
			string(class), min(nx, ny), procs)
	}
	return &FT{Class: class, Procs: procs, Iterations: iterations,
		nx: nx, ny: ny, nz: nz, niter: niter}, nil
}

// Name implements Workload.
func (f *FT) Name() string { return fmt.Sprintf("FT %s-%d", f.Class, f.Procs) }

// Ranks implements Workload.
func (f *FT) Ranks() int { return f.Procs }

// slabX and slabY are the rank's plane counts in the two decomposed
// dimensions (x before the transpose, y after).
func (f *FT) slabX(rank int) int { return split(f.nx, f.Procs, rank) }
func (f *FT) slabY(rank int) int { return split(f.ny, f.Procs, rank) }

// localPoints is the rank's grid-point count in the x-slab layout.
func (f *FT) localPoints(rank int) float64 {
	return float64(f.slabX(rank)) * float64(f.ny) * float64(f.nz)
}

// WorkingSet implements Workload: two resident complex arrays plus the
// transpose scratch buffer.
func (f *FT) WorkingSet(rank int) float64 {
	return 3 * ftComplexBytes * f.localPoints(rank)
}

// fftPassInstr is the compute volume of all 1D FFT passes over one layout
// of the rank's points.
func (f *FT) fftPassInstr(rank int) float64 {
	logn := math.Log2(float64(f.nx)) + math.Log2(float64(f.ny)) + math.Log2(float64(f.nz))
	return InstrFTButterfly * f.localPoints(rank) * logn / 3
}

// BaseInstructions implements Workload.
func (f *FT) BaseInstructions(rank int) float64 {
	perIter := InstrFTEvolve*f.localPoints(rank) + 2*f.fftPassInstr(rank)
	return float64(f.niter) * perIter
}

// transposeVols returns the alltoallv send vector of the slab transpose:
// the block handed to rank k is this rank's x-planes times k's y-planes
// times the full z extent. Both split remainders land in the vector, so any
// nx%P or ny%P imbalance shows up as unequal volumes.
func (f *FT) transposeVols(rank int) []float64 {
	vols := make([]float64, f.Procs)
	for k := 0; k < f.Procs; k++ {
		if k == rank {
			continue
		}
		vols[k] = ftComplexBytes * float64(f.slabX(rank)) * float64(f.slabY(k)) * float64(f.nz)
	}
	return vols
}

// checksumVols returns the allgatherv vector of the final checksum
// collection: rank k contributes one complex value per x-plane it owns —
// identical on every rank, as the action requires.
func (f *FT) checksumVols() []float64 {
	vols := make([]float64, f.Procs)
	for k := 0; k < f.Procs; k++ {
		vols[k] = ftComplexBytes * float64(f.slabX(k))
	}
	return vols
}

// Rank implements Workload: init, the iterations, the checksum teardown.
func (f *FT) Rank(rank int) (OpStream, error) { return newStream(f, rank, f.Procs, f.niter+2) }

func (f *FT) phase(s *stream, i int) {
	switch {
	case i == 0:
		s.emit(trace.Init, 0, 0, -1, 0)
	case i <= f.niter:
		f.iteration(s)
	default:
		// Checksum collection and teardown.
		s.emit(trace.AllGatherV, 0, 0, -1, 1).Volumes = f.checksumVols()
		s.emit(trace.Finalize, 0, 0, -1, 0)
	}
}

// iteration is one evolve + forward/inverse FFT step: local passes
// separated by the transpose, then the iteration checksum.
func (f *FT) iteration(s *stream) {
	pts := f.localPoints(s.rank)
	calls := ftCallsPerPoint * pts
	s.emit(trace.Compute, InstrFTEvolve*pts+f.fftPassInstr(s.rank), 0, -1, calls)
	if f.Procs > 1 {
		s.emit(trace.AllToAllV, 0, 0, -1, 1).Volumes = f.transposeVols(s.rank)
	}
	s.emit(trace.Compute, f.fftPassInstr(s.rank), 0, -1, calls)
	s.emit(trace.AllReduce, 0, ftComplexBytes, -1, 1)
}

var _ Workload = (*FT)(nil)
