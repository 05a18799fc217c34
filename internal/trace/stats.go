package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Stats summarizes the volumes in a trace, per rank and overall. The
// acquisition tools print it so users can sanity-check traces before replay,
// and the experiments use the instruction totals to measure counter
// discrepancies (Figures 1/2/4/5 of the paper).
type Stats struct {
	Ranks int
	// ByKind counts actions per kind.
	ByKind map[Kind]int64
	// Instructions is the total compute volume.
	Instructions float64
	// InstructionsByRank is indexed by rank.
	InstructionsByRank []float64
	// P2PBytes is the total point-to-point volume (sends only, to avoid
	// double counting).
	P2PBytes float64
	// P2PMessages counts sends and isends.
	P2PMessages int64
	// EagerMessages counts messages strictly below threshold (see Collect).
	EagerMessages int64
	// CollectiveBytes is the per-rank payload summed over collective calls.
	CollectiveBytes float64
}

// Collect gathers statistics over per-rank streams obtained from p.
// eagerThreshold classifies messages (the paper uses 64 KiB).
func Collect(p Provider, eagerThreshold float64) (*Stats, error) {
	s := &Stats{
		Ranks:              p.NumRanks(),
		ByKind:             make(map[Kind]int64),
		InstructionsByRank: make([]float64, p.NumRanks()),
	}
	var a Action
	for rank := 0; rank < p.NumRanks(); rank++ {
		st, err := p.Rank(rank)
		if err != nil {
			return nil, err
		}
		for {
			ok, err := st.Next(&a)
			if err != nil {
				return nil, fmt.Errorf("trace: rank %d: %w", rank, err)
			}
			if !ok {
				break
			}
			s.ByKind[a.Kind]++
			switch a.Kind {
			case Compute:
				s.Instructions += a.Instructions
				s.InstructionsByRank[a.Rank%len(s.InstructionsByRank)] += a.Instructions
			case Send, ISend:
				s.P2PBytes += a.Bytes
				s.P2PMessages++
				if a.Bytes < eagerThreshold {
					s.EagerMessages++
				}
			case Bcast, Reduce, AllReduce, AllToAll, Gather, AllGather:
				s.CollectiveBytes += a.Bytes
			case AllToAllV, AllGatherV:
				for _, v := range a.Volumes {
					s.CollectiveBytes += v
				}
			}
		}
	}
	return s, nil
}

// Validate checks cross-rank consistency of a full trace: every send must
// have a matching receive on the peer (and vice versa), and collective
// participation counts must agree across ranks. It streams each rank once.
// Of several mismatches it reports the first in a fixed order: rank pairs
// by (source, destination), then collectives in Kind order.
func Validate(p Provider) error {
	n := p.NumRanks()
	// sendCount[src][dst] counts messages; recvCount[dst][src] likewise.
	sendCount := make(map[[2]int]int64)
	recvCount := make(map[[2]int]int64)
	collCount := make(map[Kind][]int64)
	var a Action
	for rank := 0; rank < n; rank++ {
		st, err := p.Rank(rank)
		if err != nil {
			return err
		}
		for {
			// The stream checked the action against the communicator.
			ok, err := st.Next(&a)
			if err != nil {
				return fmt.Errorf("trace: rank %d: %w", rank, err)
			}
			if !ok {
				break
			}
			switch a.Kind {
			case Send, ISend:
				sendCount[[2]int{a.Rank, a.Peer}]++
			case Recv, IRecv:
				recvCount[[2]int{a.Peer, a.Rank}]++
			default:
				if a.Kind.IsCollective() {
					if collCount[a.Kind] == nil {
						collCount[a.Kind] = make([]int64, n)
					}
					collCount[a.Kind][rank]++
				}
			}
		}
	}
	pairs := slices.AppendSeq(slices.Collect(maps.Keys(sendCount)), maps.Keys(recvCount))
	slices.SortFunc(pairs, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, pair := range slices.Compact(pairs) {
		switch ns, nr := sendCount[pair], recvCount[pair]; {
		case ns > 0 && nr != ns:
			return fmt.Errorf("trace: p%d sends %d message(s) to p%d but p%d posts %d receive(s)",
				pair[0], ns, pair[1], pair[1], nr)
		case ns == 0 && nr > 0:
			return fmt.Errorf("trace: p%d posts %d receive(s) from p%d with no matching send",
				pair[1], nr, pair[0])
		}
	}
	for _, kind := range slices.Sorted(maps.Keys(collCount)) {
		counts := collCount[kind]
		for r := 1; r < n; r++ {
			if counts[r] != counts[0] {
				return fmt.Errorf("trace: collective %s called %d time(s) on p0 but %d on p%d",
					kind, counts[0], counts[r], r)
			}
		}
	}
	return nil
}
