package sim

// flowHeap is an indexed binary min-heap of active flows keyed by projected
// completion time, with arrival-sequence tie-breaking so same-instant
// completions are processed in arrival order. It replaces the historical
// per-event linear scan over all flows: the earliest completion is read off
// the top, and a flow's key is touched only when the solver changes its
// rate. Every flow in the heap records its slot in heapIdx; a flow outside
// it has heapIdx -1.
type flowHeap []*flow

// earlier returns 1 if f comes before g in the heap order (finish, seq), a
// total order since seq is unique, and 0 otherwise, without branches (see
// timer.earlier).
func (f *flow) earlier(g *flow) int {
	return b2i(f.finish < g.finish) | b2i(f.finish == g.finish)&b2i(f.seq < g.seq)
}

func (h *flowHeap) push(f *flow) {
	*h = append(*h, f)
	h.up(len(*h)-1, f)
}

// pop removes and returns the earliest flow; the heap must not be empty.
func (h *flowHeap) pop() *flow {
	f := (*h)[0]
	h.remove(f)
	return f
}

// fix restores the order after f's key changed, sifting it whichever way
// the order requires.
func (h flowHeap) fix(f *flow) {
	if !h.down(f.heapIdx, f) {
		h.up(f.heapIdx, f)
	}
}

func (h *flowHeap) remove(f *flow) {
	s := *h
	i, n := f.heapIdx, len(s)-1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	f.heapIdx = -1
	if i < n {
		last.heapIdx = i
		s.fix(last)
	}
}

// up moves the hole at slot i toward the root until f fits, then stores f
// there.
func (h flowHeap) up(i int, f *flow) {
	for i > 0 {
		p := (i - 1) / 2
		if f.earlier(h[p]) == 0 {
			break
		}
		h[i] = h[p]
		h[i].heapIdx = i
		i = p
	}
	h[i] = f
	f.heapIdx = i
}

// down moves the hole at slot i toward the leaves until f fits, stores f
// there, and reports whether f moved.
func (h flowHeap) down(i int, f *flow) bool {
	i0, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += h[c+1].earlier(h[c])
		}
		if h[c].earlier(f) == 0 {
			break
		}
		h[i] = h[c]
		h[i].heapIdx = i
		i = c
	}
	h[i] = f
	f.heapIdx = i
	return i > i0
}
