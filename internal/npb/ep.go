package npb

import (
	"fmt"
	"math"

	"tireplay/internal/trace"
)

// EP models the NPB "embarrassingly parallel" kernel: each rank generates
// and tests its share of 2^(M+1) Gaussian pairs independently, then three
// small allreduces combine the sums and the annulus counts. EP is the pure
// compute extreme of the benchmark family — the opposite end of the
// spectrum from LU's fine-grain coupling — and exercises the replay on a
// workload where the network model is almost irrelevant.
type EP struct {
	Class Class
	Procs int

	m int // log2 of the pair count minus 1
}

// epM returns the published M parameter for a class.
func epM(c Class) (int, error) {
	switch c {
	case ClassS:
		return 24, nil
	case ClassW:
		return 25, nil
	case ClassA:
		return 28, nil
	case ClassB:
		return 30, nil
	case ClassC:
		return 32, nil
	case ClassD:
		return 36, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// EP instruction economics.
const (
	// InstrPerPair covers generating one random pair and the acceptance
	// test (two lcg draws, squares, log/sqrt on acceptance).
	InstrPerPair = 90
	// epCallsPerPair is the instrumented-call density.
	epCallsPerPair = 0.08
	// epSegments splits the per-rank batch so traces contain several
	// compute segments (the real code reports progress in chunks).
	epSegments = 16
)

// NewEP validates and returns an EP instance. Unlike LU, EP accepts any
// positive process count; we keep the power-of-two requirement for
// consistency with the rest of the suite.
func NewEP(class Class, procs int) (*EP, error) {
	m, err := epM(class)
	if err != nil {
		return nil, err
	}
	if _, _, err := grid2D(procs); err != nil {
		return nil, err
	}
	return &EP{Class: class, Procs: procs, m: m}, nil
}

// Name implements Workload.
func (e *EP) Name() string { return fmt.Sprintf("EP %s-%d", e.Class, e.Procs) }

// Ranks implements Workload.
func (e *EP) Ranks() int { return e.Procs }

// pairsPerRank is the rank's share of the 2^(M+1) pairs.
func (e *EP) pairsPerRank() float64 {
	return math.Exp2(float64(e.m+1)) / float64(e.Procs)
}

// WorkingSet implements Workload: EP streams random numbers through a tiny
// buffer; it always fits in cache.
func (e *EP) WorkingSet(rank int) float64 { return 128 * 1024 }

// BaseInstructions implements Workload.
func (e *EP) BaseInstructions(rank int) float64 {
	return InstrPerPair * e.pairsPerRank()
}

// Rank implements Workload: the whole stream is one phase.
func (e *EP) Rank(rank int) (OpStream, error) { return newStream(e, rank, e.Procs, 1) }

func (e *EP) phase(s *stream, _ int) {
	s.emit(trace.Init, 0, 0, -1, 0)
	perSeg := e.BaseInstructions(s.rank) / epSegments
	callsPerSeg := epCallsPerPair * e.pairsPerRank() / epSegments
	for i := 0; i < epSegments; i++ {
		s.emit(trace.Compute, perSeg, 0, -1, callsPerSeg)
	}
	// sx, sy sums and the ten annulus counts.
	s.emit(trace.AllReduce, 0, 8, -1, 1)
	s.emit(trace.AllReduce, 0, 8, -1, 1)
	s.emit(trace.AllReduce, 0, 80, -1, 1)
	s.emit(trace.Finalize, 0, 0, -1, 0)
}

var _ Workload = (*EP)(nil)
