package mpi

import (
	"testing"

	"tireplay/internal/sim"
)

// lastEnd returns the latest end time of a collective run.
func lastEnd(ends []float64) float64 {
	m := 0.0
	for _, e := range ends {
		if e > m {
			m = e
		}
	}
	return m
}

func bcast(bytes float64, root int) step {
	return func(tr *TaskRank, p *sim.Prog) { tr.Bcast(p, bytes, root) }
}

func allReduce(bytes float64) step {
	return func(tr *TaskRank, p *sim.Prog) { tr.AllReduce(p, bytes) }
}

func TestBcastAlgorithmsAllDeliver(t *testing.T) {
	for _, algo := range []BcastAlgo{BcastBinomial, BcastLinear, BcastChain} {
		for _, n := range []int{2, 5, 8} {
			ends := runCollective(t, n, ModelConfig{Bcast: algo}, bcast(1<<20, 0))
			for i := 1; i < n; i++ {
				if ends[i] <= 0 {
					t.Fatalf("algo %d, n=%d: rank %d never received", algo, n, i)
				}
			}
		}
	}
}

func TestBcastChainSegmentsOverlap(t *testing.T) {
	// For a long chain and a large message, the pipelined chain must beat
	// the linear algorithm (root serializes P-1 full transfers) because
	// segments overlap along the chain.
	const n, bytes = 8, 4 << 20
	chain := lastEnd(runCollective(t, n, ModelConfig{Bcast: BcastChain}, bcast(bytes, 0)))
	linear := lastEnd(runCollective(t, n, ModelConfig{Bcast: BcastLinear}, bcast(bytes, 0)))
	if chain >= linear {
		t.Fatalf("chain bcast (%.4f s) not faster than linear (%.4f s) for large messages", chain, linear)
	}
}

func TestBcastNonZeroRootAlgorithms(t *testing.T) {
	for _, algo := range []BcastAlgo{BcastLinear, BcastChain} {
		ends := runCollective(t, 6, ModelConfig{Bcast: algo}, bcast(4096, 2))
		for i, end := range ends {
			if i != 2 && end <= 0 {
				t.Fatalf("algo %d: rank %d never received from root 2", algo, i)
			}
		}
	}
}

func TestAllReduceAlgorithmsComplete(t *testing.T) {
	for _, algo := range []AllReduceAlgo{AllReduceRDB, AllReduceReduceBcast, AllReduceRing} {
		for _, n := range []int{2, 4, 6, 8} {
			ends := runCollective(t, n, ModelConfig{AllReduce: algo}, allReduce(1<<18))
			for i, end := range ends {
				if end <= 0 {
					t.Fatalf("algo %d, n=%d: rank %d did not finish", algo, n, i)
				}
			}
		}
	}
}

func TestAllReduceRingMovesLessPerStep(t *testing.T) {
	// For large payloads the ring (2(P-1) chunks of bytes/P) must beat
	// reduce+bcast (2 log2 P full-size hops) on bandwidth-dominated
	// networks.
	const n, bytes = 8, 8 << 20
	ring := lastEnd(runCollective(t, n, ModelConfig{AllReduce: AllReduceRing}, allReduce(bytes)))
	rb := lastEnd(runCollective(t, n, ModelConfig{AllReduce: AllReduceReduceBcast}, allReduce(bytes)))
	if ring >= rb {
		t.Fatalf("ring allreduce (%.4f s) not faster than reduce+bcast (%.4f s) for large payloads", ring, rb)
	}
}

func TestSingleRankCollectiveAlgosFree(t *testing.T) {
	cfg := ModelConfig{Bcast: BcastChain, AllReduce: AllReduceRing}
	ends := runCollective(t, 1, cfg, func(tr *TaskRank, p *sim.Prog) {
		tr.Bcast(p, 100, 0)
		tr.AllReduce(p, 100)
	})
	if ends[0] != 0 {
		t.Fatalf("single-rank collectives took %v", ends[0])
	}
}

func TestModelConfigSelectsCollectiveAlgos(t *testing.T) {
	// The configured algorithms are the ones Bcast and AllReduce (and hence
	// trace replay) lower to.
	const bytes = 8 << 20
	ring := lastEnd(runCollective(t, 8, ModelConfig{AllReduce: AllReduceRing}, allReduce(bytes)))
	rdb := lastEnd(runCollective(t, 8, ModelConfig{}, allReduce(bytes)))
	if ring == rdb {
		t.Fatal("allreduce algorithm selection had no effect")
	}
	linearBcast := lastEnd(runCollective(t, 8, ModelConfig{Bcast: BcastLinear}, bcast(bytes, 0)))
	binomBcast := lastEnd(runCollective(t, 8, ModelConfig{}, bcast(bytes, 0)))
	if linearBcast == binomBcast {
		t.Fatal("bcast algorithm selection had no effect")
	}
}
