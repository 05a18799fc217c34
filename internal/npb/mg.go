package npb

import (
	"fmt"

	"tireplay/internal/trace"
)

// MG models the NPB multigrid kernel: V-cycles over a hierarchy of 3D
// grids, each level exchanging face halos with the six neighbours of a 3D
// process decomposition. MG stresses the replay differently from LU
// (latency-bound small messages at coarse levels, bandwidth-bound large
// faces at fine levels) and from CG (no global reductions inside the
// cycle).
type MG struct {
	Class Class
	Procs int
	// Iterations overrides the class default when positive.
	Iterations int

	n, niter   int
	px, py, pz int
}

// mgParams returns (grid dimension, iterations) per class.
func mgParams(c Class) (int, int, error) {
	switch c {
	case ClassS:
		return 32, 4, nil
	case ClassW:
		return 128, 4, nil
	case ClassA:
		return 256, 4, nil
	case ClassB:
		return 256, 20, nil
	case ClassC:
		return 512, 20, nil
	case ClassD:
		return 1024, 50, nil
	}
	return 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// MG instruction economics (per grid point per V-cycle): the residual,
// smoother, restriction and prolongation stencils.
const (
	InstrMGResidual = 21
	InstrMGSmooth   = 24
	InstrMGTransfer = 15
	mgCallsPerPoint = 0.12
	// mgMinLevelDim stops coarsening when the global grid reaches this
	// dimension.
	mgMinLevelDim = 4
)

// grid3D factors a power-of-two process count into the most cubic
// (px, py, pz).
func grid3D(p int) (px, py, pz int, err error) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, 0, 0, fmt.Errorf("npb: MG requires a power-of-two process count, got %d", p)
	}
	px, py, pz = 1, 1, 1
	for q := p; q > 1; q /= 2 {
		switch {
		case px <= py && px <= pz:
			px *= 2
		case py <= pz:
			py *= 2
		default:
			pz *= 2
		}
	}
	return px, py, pz, nil
}

// NewMG validates and returns an MG instance.
func NewMG(class Class, procs, iterations int) (*MG, error) {
	n, niter, err := mgParams(class)
	if err != nil {
		return nil, err
	}
	if iterations > 0 {
		niter = iterations
	}
	px, py, pz, err := grid3D(procs)
	if err != nil {
		return nil, err
	}
	if px > n || py > n || pz > n {
		return nil, fmt.Errorf("npb: MG %s on %d processes exceeds the %d^3 grid", string(class), procs, n)
	}
	return &MG{Class: class, Procs: procs, Iterations: iterations,
		n: n, niter: niter, px: px, py: py, pz: pz}, nil
}

// Name implements Workload.
func (m *MG) Name() string { return fmt.Sprintf("MG %s-%d", m.Class, m.Procs) }

// Ranks implements Workload.
func (m *MG) Ranks() int { return m.Procs }

// Grid returns the 3D process decomposition.
func (m *MG) Grid() (px, py, pz int) { return m.px, m.py, m.pz }

// levels returns the V-cycle depth.
func (m *MG) levels() int {
	l := 0
	for d := m.n; d >= mgMinLevelDim; d /= 2 {
		l++
	}
	return l
}

// localDims returns the rank's subgrid at level 0 (finest).
func (m *MG) localDims(rank int) (nx, ny, nz int) {
	ix := rank % m.px
	iy := (rank / m.px) % m.py
	iz := rank / (m.px * m.py)
	return split(m.n, m.px, ix), split(m.n, m.py, iy), split(m.n, m.pz, iz)
}

// neighbors3D returns the six face neighbours (-1 when at the boundary;
// NPB-MG is periodic, but we model the non-periodic variant to keep the
// message graph acyclic per direction, which does not change the volume
// shape).
func (m *MG) neighbors3D(rank int) [6]int {
	ix := rank % m.px
	iy := (rank / m.px) % m.py
	iz := rank / (m.px * m.py)
	at := func(x, y, z int) int { return z*m.px*m.py + y*m.px + x }
	nb := [6]int{-1, -1, -1, -1, -1, -1}
	if ix > 0 {
		nb[0] = at(ix-1, iy, iz)
	}
	if ix < m.px-1 {
		nb[1] = at(ix+1, iy, iz)
	}
	if iy > 0 {
		nb[2] = at(ix, iy-1, iz)
	}
	if iy < m.py-1 {
		nb[3] = at(ix, iy+1, iz)
	}
	if iz > 0 {
		nb[4] = at(ix, iy, iz-1)
	}
	if iz < m.pz-1 {
		nb[5] = at(ix, iy, iz+1)
	}
	return nb
}

// WorkingSet implements Workload: the finest-level subgrid with its halo
// (8 bytes per point, two resident arrays).
func (m *MG) WorkingSet(rank int) float64 {
	nx, ny, nz := m.localDims(rank)
	return 16 * float64(nx+2) * float64(ny+2) * float64(nz+2)
}

// pointsAtLevel returns the rank's subgrid volume at a level.
func (m *MG) pointsAtLevel(rank, level int) float64 {
	nx, ny, nz := m.localDims(rank)
	f := 1 << level
	lx, ly, lz := nx/f, ny/f, nz/f
	if lx < 1 {
		lx = 1
	}
	if ly < 1 {
		ly = 1
	}
	if lz < 1 {
		lz = 1
	}
	return float64(lx) * float64(ly) * float64(lz)
}

// BaseInstructions implements Workload.
func (m *MG) BaseInstructions(rank int) float64 {
	total := 0.0
	perPoint := float64(InstrMGResidual + 2*InstrMGSmooth + InstrMGTransfer)
	for l := 0; l < m.levels(); l++ {
		total += perPoint * m.pointsAtLevel(rank, l)
	}
	return float64(m.niter) * total
}

// Rank implements Workload: init, one V-cycle per iteration, teardown.
func (m *MG) Rank(rank int) (OpStream, error) { return newStream(m, rank, m.Procs, m.niter+2) }

func (m *MG) phase(s *stream, i int) {
	switch {
	case i == 0:
		s.emit(trace.Init, 0, 0, -1, 0)
	case i <= m.niter:
		m.vcycle(s)
		// Residual norm after each cycle.
		s.emit(trace.AllReduce, 0, 8, -1, 1)
	default:
		s.emit(trace.AllReduce, 0, 8, -1, 1) // final verification norm
		s.emit(trace.Finalize, 0, 0, -1, 0)
	}
}

// vcycle descends to the coarsest level and climbs back, exchanging halos
// at each level.
func (m *MG) vcycle(s *stream) {
	L := m.levels()
	// Downstroke: smooth + residual + restrict.
	for l := 0; l < L; l++ {
		pts := m.pointsAtLevel(s.rank, l)
		s.emit(trace.Compute, float64(InstrMGSmooth+InstrMGResidual)*pts, 0, -1, mgCallsPerPoint*pts)
		m.halo(s, l)
	}
	// Upstroke: prolongate + smooth.
	for l := L - 1; l >= 0; l-- {
		pts := m.pointsAtLevel(s.rank, l)
		s.emit(trace.Compute, float64(InstrMGSmooth+InstrMGTransfer)*pts, 0, -1, mgCallsPerPoint*pts)
		m.halo(s, l)
	}
}

// halo exchanges the six faces at a level: irecv all, send all, waitall
// (the comm3 pattern of NPB-MG).
func (m *MG) halo(s *stream, level int) {
	nx, ny, nz := m.localDims(s.rank)
	f := 1 << level
	lx, ly, lz := max(nx/f, 1), max(ny/f, 1), max(nz/f, 1)
	faceBytes := [6]float64{
		8 * float64(ly) * float64(lz), 8 * float64(ly) * float64(lz), // x faces
		8 * float64(lx) * float64(lz), 8 * float64(lx) * float64(lz), // y faces
		8 * float64(lx) * float64(ly), 8 * float64(lx) * float64(ly), // z faces
	}
	nb := m.neighbors3D(s.rank)
	posted := 0
	for d, peer := range nb {
		if peer >= 0 {
			s.emit(trace.IRecv, 0, faceBytes[d], peer, 1)
			posted++
		}
	}
	for d, peer := range nb {
		if peer >= 0 {
			s.emit(trace.Send, 0, faceBytes[d], peer, 1)
		}
	}
	if posted > 0 {
		s.emit(trace.WaitAll, 0, 0, -1, 1)
	}
}

var _ Workload = (*MG)(nil)
