package sim

import "math"

// flow is the fluid stage of a communication: an amount of bytes crossing a
// set of links, sharing their capacity with the other active flows.
//
// Progress is tracked lazily: rem is the number of bytes left as of lastT,
// and finish is the projected absolute completion time under the current
// rate. rem is only materialized when the rate changes or the flow
// completes, so advancing simulated time costs nothing per flow.
type flow struct {
	comm  *Comm
	links []*Link
	// cap bounds the rate of this flow regardless of link shares (0 = no
	// bound). The SMPI model uses it to apply bandwidth correction factors.
	cap float64
	// ub bounds every rate the solver can assign this flow: the smallest
	// bandwidth on its route, or cap when that is smaller. Set by addFlow.
	ub float64
	// rate is the current max-min allocation, recomputed whenever the flow
	// set of this flow's sub-component (see solveFrom) changes.
	rate float64
	// rem is the number of bytes still to transfer as of lastT.
	rem float64
	// lastT is the simulated time at which rem was last materialized.
	lastT float64
	// finish is the projected absolute completion time (lastT + rem/rate);
	// +Inf while the flow is stalled at rate 0.
	finish float64

	// seq is the arrival sequence number, breaking completion ties so that
	// same-instant completions wake waiters in arrival order (deterministic,
	// and identical to the historical scan order).
	seq int64
	// linkPos[i] is this flow's index in links[i]'s per-engine flow list,
	// for O(1) removal. lstates[i] caches the resolved linkState of
	// links[i], so the solver's traversals never touch the engine's link
	// map; both backing arrays are reused across a recycled comm's flows.
	linkPos  []int
	lstates  []*linkState
	heapIdx  int   // index in Engine.completions, -1 when absent
	listIdx  int   // index in Engine.active
	stallIdx int   // index in Engine.stalled, -1 when absent
	mark     int64 // component-traversal generation marker
	fixed    bool  // progressive-filling scratch: rate settled in this solve
	dirty    bool  // queued in Engine.dirtyFlows
}

// linkState is the engine-local registry for one link: the active flows
// crossing it plus solver scratch. It lives on the engine rather than on the
// Link because a platform's links are shared by every engine that replays
// on it.
type linkState struct {
	link  *Link
	bw    float64 // link.Bandwidth, read by the solver without a pointer hop
	flows []*flow
	mark  int64 // component-traversal generation marker
	dirty bool  // queued in Engine.dirtyLinks

	// canSaturate's answer for the current flow list, valid while satKnown;
	// addFlow and removeFlow clear satKnown whenever they change the list.
	satKnown, sat bool

	// progressive-filling scratch: the remaining capacity, the number of
	// unfixed flows (0 on a link that cannot saturate, which filling
	// ignores), and their fair share rem/n. Consumption leaves the share
	// stale; the next level's scan re-derives it, so the level that ends a
	// solve divides nothing.
	rem   float64
	n     int
	share float64
}

// linkState returns the engine's registry for l, the slot at l.ID, creating
// it on first use. startComm rejects a negative ID, and an ID whose slot
// already belongs to another link, before any flow reaches addFlow.
func (e *Engine) linkState(l *Link) *linkState {
	if l.ID >= len(e.linkStates) {
		e.linkStates = append(e.linkStates, make([]*linkState, l.ID+1-len(e.linkStates))...)
	}
	ls := e.linkStates[l.ID]
	if ls == nil {
		ls = &linkState{link: l, bw: l.Bandwidth}
		e.linkStates[l.ID] = ls
	}
	return ls
}

// addFlow registers a newly started flow and marks it for the next share
// recomputation. The flow starts at rate 0 and enters the completion heap
// once the solver assigns it a rate.
func (e *Engine) addFlow(f *flow) {
	e.flowSeq++
	f.seq = e.flowSeq
	f.lastT = e.now
	f.finish = math.Inf(1)
	f.heapIdx = -1
	f.stallIdx = -1
	f.listIdx = len(e.active)
	e.active = append(e.active, f)
	// Reuse the backing array across a recycled comm's successive flows.
	if cap(f.linkPos) >= len(f.links) {
		f.linkPos = f.linkPos[:len(f.links)]
	} else {
		f.linkPos = make([]int, len(f.links))
	}
	if cap(f.lstates) >= len(f.links) {
		f.lstates = f.lstates[:len(f.links)]
	} else {
		f.lstates = make([]*linkState, len(f.links))
	}
	f.ub = math.Inf(1)
	if f.cap > 0 {
		f.ub = f.cap
	}
	for i, l := range f.links {
		ls := e.linkState(l)
		if ls.bw < f.ub {
			f.ub = ls.bw
		}
		f.lstates[i] = ls
		f.linkPos[i] = len(ls.flows)
		ls.flows = append(ls.flows, f)
		ls.satKnown = false
	}
	if !f.dirty {
		f.dirty = true
		e.dirtyFlows = append(e.dirtyFlows, f)
	}
	e.sharesDirty = true
}

// removeFlow unregisters a flow (normally on completion), releases its link
// capacity to its neighbours by marking the crossed links dirty, and drops
// it from the completion heap and stalled list. Only a link that can
// saturate with f still on it is marked: any other link joins no flows into
// a sub-component, before or after f leaves, so f's departure from it
// changes no rate.
func (e *Engine) removeFlow(f *flow) {
	last := len(e.active) - 1
	moved := e.active[last]
	e.active[f.listIdx] = moved
	moved.listIdx = f.listIdx
	e.active[last] = nil
	e.active = e.active[:last]

	for i, ls := range f.lstates {
		if !ls.dirty && len(ls.flows) > 1 && ls.canSaturate() {
			ls.dirty = true
			e.dirtyLinks = append(e.dirtyLinks, ls)
		}
		pos := f.linkPos[i]
		tail := len(ls.flows) - 1
		m := ls.flows[tail]
		ls.flows[pos] = m
		ls.flows[tail] = nil
		ls.flows = ls.flows[:tail]
		ls.satKnown = false
		if pos != tail {
			// Fix the moved flow's back-pointer for this link (m may be f
			// itself when a route crosses the same link twice). A flow
			// crosses few links, so the scan is O(1) in practice.
			for j, ms := range m.lstates {
				if ms == ls && m.linkPos[j] == tail {
					m.linkPos[j] = pos
					break
				}
			}
		}
	}
	if f.heapIdx >= 0 {
		e.completions.remove(f)
	}
	e.dropStalled(f)
	f.dirty = false // a queued seed that no longer exists must not be solved
	e.sharesDirty = true
}

func (e *Engine) dropStalled(f *flow) {
	if f.stallIdx < 0 {
		return
	}
	last := len(e.stalled) - 1
	m := e.stalled[last]
	e.stalled[f.stallIdx] = m
	m.stallIdx = f.stallIdx
	e.stalled[last] = nil
	e.stalled = e.stalled[:last]
	f.stallIdx = -1
}

// recomputeShares restores the bounded max-min allocation after flow-set
// changes. Only the sub-components (see solveFrom) containing a change are
// re-solved: flows elsewhere keep their rates, which are unaffected by
// construction. Stalled (rate 0) flows are re-examined on every recompute so
// freed capacity is never missed.
func (e *Engine) recomputeShares() {
	e.sharesDirty = false
	e.mark++
	m := e.mark
	if e.fromScratch {
		for _, f := range e.active {
			e.solveFrom(f, m)
		}
	} else {
		for _, f := range e.dirtyFlows {
			if f.dirty { // skip seeds removed since they were queued
				e.solveFrom(f, m)
			}
		}
		for _, ls := range e.dirtyLinks {
			for _, f := range ls.flows {
				e.solveFrom(f, m)
			}
		}
		// Re-examining stalled flows on every recompute is deliberately
		// redundant: any change that could revive one also dirties its
		// component, but a stalled flow is already a numerical corner, so
		// the recovery path must not depend on the dirtiness bookkeeping
		// being right. The extra solves cost nothing while nothing is
		// stalled (the common case: the list is empty).
		// Snapshot: solving mutates e.stalled as flows enter/leave it.
		e.stallSeeds = append(e.stallSeeds[:0], e.stalled...)
		for _, f := range e.stallSeeds {
			e.solveFrom(f, m)
		}
	}
	for _, f := range e.dirtyFlows {
		f.dirty = false
	}
	e.dirtyFlows = e.dirtyFlows[:0]
	for _, ls := range e.dirtyLinks {
		ls.dirty = false
	}
	e.dirtyLinks = e.dirtyLinks[:0]
}

// saturationSlack is the relative margin by which a link's bandwidth must
// exceed the sum of its flows' rate bounds for the link to count as unable
// to saturate. It dwarfs the rounding progressive filling accumulates on a
// link (about 1e-16 of the bandwidth per subtraction).
const saturationSlack = 1e-9

// canSaturate reports whether progressive filling could ever fix a flow at
// ls. No flow's rate exceeds its bound ub, so while the bandwidth exceeds
// the sum of the bounds of the flows crossing ls, the link's fair share stays
// above every fill level. The answer depends on the flow list alone (each
// flow's ub is fixed at addFlow), so it is cached until the list changes and
// then re-summed by saturates; a running per-link sum would drift over a
// long replay.
func (ls *linkState) canSaturate() bool {
	if !ls.satKnown {
		ls.sat, ls.satKnown = ls.saturates(), true
	}
	return ls.sat
}

// saturates is canSaturate's uncached answer: it sums the bounds of the
// current flows in list order and stops as soon as the sum shows the link
// can saturate. Degenerate links, with a non-positive bandwidth or a flow of
// non-positive bound, always can.
func (ls *linkState) saturates() bool {
	bw := ls.bw
	if !(bw > 0) {
		return true
	}
	sum := 0.0
	for _, f := range ls.flows {
		if !(f.ub > 0) {
			return true
		}
		sum += f.ub
		if bw < (1+saturationSlack)*sum {
			return true
		}
	}
	return false
}

// solveFrom gathers the sub-component containing seed, unless it was already
// solved this generation, and re-runs progressive filling on it. A
// sub-component is a set of flows joined by links that can saturate: the
// gather does not cross a link that cannot, since filling never fixes a flow
// there, so splitting at it changes no rate. A flow's smallest-bandwidth
// link can always saturate unless the flow's cap is tighter, so every flow
// keeps a constraint. The gather also sets up the filling: each crossed
// link's capacity, flow count and fair share, and the first fill level.
func (e *Engine) solveFrom(seed *flow, m int64) {
	if seed.mark == m {
		return
	}
	comp := e.compBuf[:0]
	links := e.compLinkBuf[:0]
	seed.mark = m
	comp = append(comp, seed)
	level, capped := math.Inf(1), false
	for i := 0; i < len(comp); i++ {
		f := comp[i]
		f.fixed = false
		if f.cap > 0 {
			capped = true
			if f.cap < level {
				level = f.cap
			}
		}
		for _, ls := range f.lstates {
			if ls.mark == m {
				continue
			}
			ls.mark = m
			if !ls.canSaturate() {
				ls.n = 0
				continue
			}
			links = append(links, ls)
			ls.rem = ls.bw
			ls.n = len(ls.flows)
			ls.share = ls.rem / float64(ls.n)
			if ls.share < level {
				level = ls.share
			}
			for _, g := range ls.flows {
				if g.mark != m {
					g.mark = m
					comp = append(comp, g)
				}
			}
		}
	}
	e.compBuf, e.compLinkBuf = comp[:0], links[:0]
	e.solveComponent(comp, links, level, capped)
	e.stats.ComponentsResolved++
	e.stats.FlowsResolved += int64(len(comp))
	if n := int64(len(comp)); n > e.stats.MaxComponentFlows {
		e.stats.MaxComponentFlows = n
	}
}

// solveComponent runs progressive filling (bounded max-min fairness) on one
// sub-component, from the first level the gather found: the smallest of its
// links' fair shares and its flows' caps. A level fixes exactly the unfixed
// flows whose cap or link fair share is no larger than the level, chosen on
// the shares as they stood at the level's start; only then are they
// consumed, together. No tolerance and no consumption order enters the
// choice, so a flow's rate depends on the flow set alone: a global solve, a
// per-component solve and this pruned one agree bit for bit. Each level
// fixes at least the flows of the link or cap that set it.
func (e *Engine) solveComponent(comp []*flow, links []*linkState, level float64, capped bool) {
	for unfixed := len(comp); ; {
		if math.IsInf(level, 1) {
			// No finite constraint left (no links and no cap, or only NaN
			// shares): local transfers, complete right after latency.
			for _, f := range comp {
				if !f.fixed {
					f.fixed = true
					e.applyRate(f, level)
				}
			}
			return
		}
		at := e.levelBuf[:0]
		for _, ls := range links {
			if ls.n > 0 && ls.share <= level {
				for _, f := range ls.flows {
					if !f.fixed {
						f.fixed = true
						at = append(at, f)
					}
				}
			}
		}
		if capped {
			for _, f := range comp {
				if !f.fixed && f.cap > 0 && f.cap <= level {
					f.fixed = true
					at = append(at, f)
				}
			}
		}
		for _, f := range at {
			e.applyRate(f, level)
			for _, ls := range f.lstates {
				if ls.n == 0 {
					continue // cannot saturate
				}
				ls.rem -= level
				if ls.rem < 0 {
					ls.rem = 0
				}
				ls.n--
			}
		}
		e.levelBuf = at[:0]
		if unfixed -= len(at); unfixed == 0 {
			return
		}
		level = math.Inf(1)
		for _, ls := range links {
			if ls.n > 0 {
				ls.share = ls.rem / float64(ls.n)
				if ls.share < level {
					level = ls.share
				}
			}
		}
		if capped {
			for _, f := range comp {
				if !f.fixed && f.cap > 0 && f.cap < level {
					level = f.cap
				}
			}
		}
	}
}

// applyRate installs a freshly solved rate: it materializes the flow's
// remaining bytes at the current time under the old rate, reprojects the
// completion time, and maintains the completion heap and the stalled list.
// A no-op when the rate is unchanged, which keeps the flow's arithmetic —
// and hence its completion time — bit-identical whether or not unrelated
// components were re-solved around it.
func (e *Engine) applyRate(f *flow, r float64) {
	if r == 0 {
		// Handled before the unchanged-rate shortcut: a brand-new flow's
		// rate field is already 0, but it still must enter the stalled list
		// so it is re-examined on every recompute and shows up in deadlock
		// diagnostics.
		if f.rate > 0 && !math.IsInf(f.rate, 1) {
			f.rem -= f.rate * (e.now - f.lastT)
		}
		f.lastT = e.now
		f.rate = 0
		f.finish = math.Inf(1)
		if f.heapIdx >= 0 {
			e.completions.remove(f)
		}
		if f.stallIdx < 0 {
			f.stallIdx = len(e.stalled)
			e.stalled = append(e.stalled, f)
		}
		return
	}
	if r == f.rate {
		return
	}
	if f.rate > 0 && !math.IsInf(f.rate, 1) {
		f.rem -= f.rate * (e.now - f.lastT)
	}
	f.lastT = e.now
	f.rate = r
	if math.IsInf(r, 1) {
		f.finish = e.now
	} else {
		f.finish = f.lastT + f.rem/r
	}
	e.dropStalled(f)
	if f.heapIdx >= 0 {
		e.completions.fix(f)
	} else {
		e.completions.push(f)
	}
}
