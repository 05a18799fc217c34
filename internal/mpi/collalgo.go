package mpi

// Selectable collective algorithms. SMPI (and every production MPI) ships
// several implementations per collective and picks one by message size and
// communicator shape; exposing the choice lets the benchmarks quantify how
// much the algorithm — as opposed to the network model — contributes to
// simulated collective cost.

// BcastAlgo selects the broadcast implementation.
type BcastAlgo int

// Broadcast algorithms.
const (
	// BcastBinomial is the default log2(P)-depth tree.
	BcastBinomial BcastAlgo = iota
	// BcastLinear has the root send to every rank directly (flat tree).
	BcastLinear
	// BcastChain forwards along a pipeline rank i -> i+1, segmenting the
	// payload so segments overlap (efficient for large messages).
	BcastChain
)

// AllReduceAlgo selects the allreduce implementation.
type AllReduceAlgo int

// Allreduce algorithms.
const (
	// AllReduceRDB is recursive doubling (default for power-of-two sizes).
	AllReduceRDB AllReduceAlgo = iota
	// AllReduceReduceBcast combines a binomial reduce with a binomial
	// broadcast.
	AllReduceReduceBcast
	// AllReduceRing is the bandwidth-optimal ring: a reduce-scatter
	// followed by an allgather, 2(P-1) steps of bytes/P each.
	AllReduceRing
)

// chainSegmentBytes is the pipeline segment size of BcastChain.
const chainSegmentBytes = 8192

// bcastWithColl broadcasts using an explicit algorithm.
func bcastWithColl(c *TaskRank, algo BcastAlgo, bytes float64, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	rank := c.rank
	switch algo {
	case BcastLinear:
		if rank == root {
			for dst := 0; dst < p; dst++ {
				if dst != root {
					c.sendColl(dst, bytes)
				}
			}
			return
		}
		c.recvColl(root)
	case BcastChain:
		// Ranks form a chain in root-relative order; the payload moves in
		// segments so downstream ranks start forwarding before the whole
		// message has arrived.
		vrank := (rank - root + p) % p
		prev := (rank - 1 + p) % p
		next := (rank + 1) % p
		segments := int(bytes / chainSegmentBytes)
		if segments < 1 {
			segments = 1
		}
		seg := bytes / float64(segments)
		for s := 0; s < segments; s++ {
			if vrank != 0 {
				c.recvColl(prev)
			}
			if vrank != p-1 {
				if vrank == 0 {
					// The chain head paces itself by sending each segment
					// synchronously; without this flow control every
					// segment would be pushed eagerly at once, the link
					// would be shared among all of them, and the pipeline
					// would degenerate into a store-and-forward chain.
					c.putColl(next, seg)
				} else {
					// Downstream ranks are naturally paced by arrivals.
					c.sendColl(next, seg)
				}
			}
		}
	default:
		bcastTree(c, root, bytes)
	}
}

// allReduceWithColl reduces-and-redistributes using an explicit algorithm.
func allReduceWithColl(c *TaskRank, algo AllReduceAlgo, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	switch algo {
	case AllReduceReduceBcast:
		reduceTree(c, 0, bytes)
		bcastTree(c, 0, bytes)
	case AllReduceRing:
		// Reduce-scatter then allgather around the ring; each of the
		// 2(P-1) steps moves one bytes/P chunk.
		chunk := bytes / float64(p)
		next := (c.rank + 1) % p
		prev := (c.rank - 1 + p) % p
		for step := 0; step < 2*(p-1); step++ {
			c.sendRecvColl(next, chunk, prev)
		}
	default:
		allReduceRDB(c, bytes)
	}
}
