package mpi

// Collective operations simulated as sets of point-to-point messages
// (Section 3.3: the SMPI rewrite replaces the MSG prototype's "monolithic
// performance models of collective communications" with actual message
// exchanges, following the algorithms of mainstream MPI implementations).
//
// The algorithms are functions over a *TaskRank: each point-to-point step
// appends its protocol-following micro-ops (sendColl, recvColl,
// sendRecvColl, putColl on the collective mailbox namespace) to the
// program being compiled, so one call lowers a whole collective schedule.

// barrierColl is the binomial gather + release barrier.
func barrierColl(c *TaskRank) {
	reduceTree(c, 0, 1)
	bcastTree(c, 0, 1)
}

// allReduceRDB is the recursive-doubling implementation with the
// reduce+bcast fallback for non-power-of-two communicators.
func allReduceRDB(c *TaskRank, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	if p&(p-1) == 0 {
		for mask := 1; mask < p; mask <<= 1 {
			partner := c.rank ^ mask
			c.sendRecvColl(partner, bytes, partner)
		}
		return
	}
	reduceTree(c, 0, bytes)
	bcastTree(c, 0, bytes)
}

// alltoallPairwise exchanges bytes with every other rank: P-1 rounds, in
// round i exchanging with a shifted schedule.
func alltoallPairwise(c *TaskRank, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	rank := c.rank
	for i := 1; i < p; i++ {
		dst := (rank + i) % p
		src := (rank - i + p) % p
		c.sendRecvColl(dst, bytes, src)
	}
}

// alltoallvPairwise is the vector form of alltoallPairwise: the same P-1
// round schedule, each round carrying the volume owed to that round's
// destination. Zero-volume pairs still exchange (an empty message), keeping
// the schedule — and therefore the two execution modes — identical for every
// volume vector.
func alltoallvPairwise(c *TaskRank, vols []float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	rank := c.rank
	for i := 1; i < p; i++ {
		dst := (rank + i) % p
		src := (rank - i + p) % p
		c.sendRecvColl(dst, vols[dst], src)
	}
}

// allGatherVRing is the vector form of allGatherRing: at step i each rank
// forwards the block that originated at rank (rank-i+p)%p, so block k
// travels the ring at its own size vols[k].
func allGatherVRing(c *TaskRank, vols []float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	rank := c.rank
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	for i := 0; i < p-1; i++ {
		c.sendRecvColl(next, vols[(rank-i+p)%p], prev)
	}
}

// gatherLinear collects bytes to root: each non-root sends once, the root
// receives P-1 messages in rank order.
func gatherLinear(c *TaskRank, bytes float64, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	if c.rank == root {
		for src := 0; src < p; src++ {
			if src != root {
				c.recvColl(src)
			}
		}
		return
	}
	c.sendColl(root, bytes)
}

// allGatherRing runs P-1 forwarding steps around the ring.
func allGatherRing(c *TaskRank, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	rank := c.rank
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	for i := 0; i < p-1; i++ {
		c.sendRecvColl(next, bytes, prev)
	}
}

// bcastTree implements the binomial broadcast: the root's subtree unfolds in
// log2 P rounds. vrank is the rank relative to the root.
func bcastTree(c *TaskRank, root int, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	vrank := (c.rank - root + p) % p
	// Receive from parent (unless root).
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % p
		c.recvColl(parent)
	}
	// Forward to children.
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	for ; mask < p; mask <<= 1 {
		child := vrank + mask
		if child >= p {
			break
		}
		c.sendColl((child+root)%p, bytes)
	}
}

// reduceTree is the mirror image of bcastTree: leaves send first, inner
// nodes receive from their subtree then forward to their parent. The
// children form a contiguous range of masks, so they are visited by
// iterating masks downward — no per-call slice as the historical
// implementation allocated.
func reduceTree(c *TaskRank, root int, bytes float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	vrank := (c.rank - root + p) % p
	first := 1
	for first <= vrank {
		first <<= 1
	}
	// Receive from children, in reverse order of the bcast sends: child
	// masks run [first, top] where top is the largest power of two below p;
	// children landing at or beyond p simply do not exist.
	top := 1
	for top < p {
		top <<= 1
	}
	top >>= 1
	for mask := top; mask >= first; mask >>= 1 {
		child := vrank + mask
		if child >= p {
			continue
		}
		c.recvColl((child + root) % p)
	}
	if vrank != 0 {
		m := first >> 1
		parent := ((vrank - m) + root) % p
		c.sendColl(parent, bytes)
	}
}
