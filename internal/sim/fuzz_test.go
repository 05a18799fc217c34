package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// Bandwidths and caps of the solver fuzz inputs come from small symmetric
// tables: fair shares then tie across links and against caps, the inputs on
// which a tolerance- or order-dependent tie rule makes a flow's rate depend
// on which other flows are solved with it. The widest bandwidth exceeds the
// sum of a few narrower routes' bounds, so links that cannot saturate, and
// the pruning that skips them, occur too.
var (
	fuzzBandwidths = [...]float64{1.25e9, 2.5e9, 5e9, 1e10}
	fuzzCaps       = [...]float64{0, 0, 0, 0, 6.25e8, 1.25e9, 2.5e9, 5e9}
)

// Bounds on one decoded sequence, keeping each fuzz input cheap.
const (
	fuzzMaxLinks = 5
	fuzzMaxLive  = 24
	fuzzMaxOps   = 96
)

// checkMaxMinSequence decodes data into a few links and a sequence of flow
// arrivals and departures, replays it through the engine's incremental
// solver, and checks the allocation after every recompute (see
// checkAllocation). The first byte sets the link count and the next ones the
// link bandwidths. Each later byte is one operation: an odd byte removes a
// live flow; an even byte, or any byte while no flow is live, adds a flow
// whose cap it selects and whose route is the bit mask in the byte after it.
func checkMaxMinSequence(data []byte) error {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	links := make([]*Link, 1+int(next())%fuzzMaxLinks)
	for i := range links {
		links[i] = &Link{Name: fmt.Sprintf("l%d", i), Bandwidth: fuzzBandwidths[int(next())%len(fuzzBandwidths)], ID: i}
	}
	e := NewEngine(pairRouter{links[0]})
	var live []*flow
	for op := 0; op < fuzzMaxOps && len(data) > 0; op++ {
		b := next()
		if len(live) > 0 && (b&1 == 1 || len(live) == fuzzMaxLive) {
			i := int(b>>1) % len(live)
			e.removeFlow(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			mask := next()
			var route []*Link
			for k := range links {
				if mask>>k&1 == 1 {
					// The top bits rotate the route so links are not always
					// crossed in index order.
					route = append(route, links[(k+int(mask>>5))%len(links)])
				}
			}
			if len(route) == 0 {
				route = append(route, links[int(mask>>5)%len(links)])
			}
			f := &flow{comm: mkComm(1), links: route, cap: fuzzCaps[int(b>>1)%len(fuzzCaps)], rem: 1}
			e.addFlow(f)
			live = append(live, f)
		}
		e.recomputeShares()
		if err := checkLinkStates(e, live); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if err := checkAllocation(live); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	return nil
}

// checkLinkStates checks the engine's per-link state: every live flow's
// resolved states belong to the links it crosses, every state sits at its
// link's ID, and every cached saturability equals a fresh re-sum over the
// link's current flows, so a flow-list change that does not invalidate the
// cache is caught.
func checkLinkStates(e *Engine, live []*flow) error {
	for i, f := range live {
		for k, ls := range f.lstates {
			if ls.link != f.links[k] {
				return fmt.Errorf("flow %d hop %d crosses link %s (ID %d) but holds the state of link %s",
					i, k, f.links[k].Name, f.links[k].ID, ls.link.Name)
			}
		}
	}
	for id, ls := range e.linkStates {
		if ls == nil {
			continue
		}
		if ls.link.ID != id {
			return fmt.Errorf("state of link %s (ID %d) at slot %d", ls.link.Name, ls.link.ID, id)
		}
		if ls.satKnown && ls.sat != ls.saturates() {
			return fmt.Errorf("link %s: cached saturability %v, a re-sum over its %d flows gives %v",
				ls.link.Name, ls.sat, len(ls.flows), !ls.sat)
		}
	}
	return nil
}

// checkAllocation checks the rates of the live flows: each is bit-identical
// to the global referenceShares solve; no link carries more than its
// bandwidth; and each flow sits at its cap or crosses a saturated link on
// which no flow has a higher rate, so no rate could grow. The last two hold
// to a relative slack of 1e-9, for the rounding of the fill.
func checkAllocation(live []*flow) error {
	const slack = 1e-9
	want := referenceShares(live)
	load := make(map[*Link]float64)
	on := make(map[*Link][]*flow)
	for i, f := range live {
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			return fmt.Errorf("flow %d rate = %v, want %v (reference, bit-identical)", i, f.rate, want[i])
		}
		for _, l := range f.links {
			load[l] += f.rate
			on[l] = append(on[l], f)
		}
	}
	for l, x := range load {
		if x > l.Bandwidth*(1+slack) {
			return fmt.Errorf("link %s carries %v, over its bandwidth %v", l.Name, x, l.Bandwidth)
		}
	}
	for i, f := range live {
		if f.cap > 0 && f.rate == f.cap {
			continue
		}
		bottlenecked := false
		for _, l := range f.links {
			if load[l] < l.Bandwidth*(1-slack) {
				continue
			}
			highest := true
			for _, g := range on[l] {
				if g.rate > f.rate*(1+slack) {
					highest = false
					break
				}
			}
			if highest {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d at rate %v (cap %v) is neither capped nor at a bottleneck link", i, f.rate, f.cap)
		}
	}
	return nil
}

// FuzzMaxMin checks the incremental, per-component, pruned max-min solver
// against the global reference and the max-min optimality conditions on
// arbitrary arrival/departure sequences over symmetric bandwidths and caps.
func FuzzMaxMin(f *testing.F) {
	// Header byte (link count - 1), one bandwidth index per link, then
	// operations (see checkMaxMinSequence).
	// The textbook example: a 10 GB/s and a 5 GB/s link, one flow on each
	// and one across both.
	f.Add([]byte{1, 3, 2, 0, 1, 0, 3, 0, 2})
	// One link shared by capped and uncapped flows, then a departure.
	f.Add([]byte{0, 1, 8, 1, 10, 1, 12, 1, 0, 1, 1})
	// A 10 GB/s link that cannot saturate between two 1.25 GB/s links, until
	// a flow crossing only it arrives; then a departure.
	f.Add([]byte{2, 0, 3, 0, 0, 3, 0, 6, 0, 2, 1})
	// Four equal links and overlapping routes: ties everywhere.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 15, 0, 3, 0, 12, 0, 5, 0, 10, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkMaxMinSequence(data); err != nil {
			t.Fatal(err)
		}
	})
}

// Bounds of one decoded match-queue sequence: posts among fuzzRanks ranks.
const (
	fuzzRanks    = 4
	fuzzMaxPosts = 64
)

// checkMatchSequence decodes data into posts made straight through postSend
// and postRecv, without running the engine, and checks every result against
// a reference that keeps one FIFO of unmatched posts per mailbox. Each byte
// is one post: bit 0 picks the unpinned (0) or the pinned (1) space, bits
// 1-2 the source and bits 3-4 the destination rank, bit 5 a send (0) or a
// receive (1), and bit 6 makes a send detached.
func checkMatchSequence(data []byte) error {
	e := NewEngine(pairRouter{&Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}})
	hs := newTestHosts(fuzzRanks, 1e9)
	procs := make([]*Proc, fuzzRanks)
	for i, h := range hs {
		procs[i] = &Proc{Name: h.Name, Host: h, engine: e}
	}
	spaces := [2]*PairSpace{e.NewPairSpace("u", nil), e.NewPairSpace("p", hs)}
	// The reference records each post's side: a match sets both on the comm.
	type post struct {
		c    *Comm
		send bool
	}
	unmatched := make(map[Mbox][]post)
	var matched []*Comm
	var ids int64
	for i, b := range data[:min(len(data), fuzzMaxPosts)] {
		s := spaces[b&1]
		src, dst := int(b>>1&3), int(b>>3&3)
		send := b>>5&1 == 0
		detached := send && b>>6&1 == 1
		mb := s.Box(src, dst)
		var c *Comm
		if send {
			c = e.postSend(mb, procs[src], 1, detached)
		} else {
			c = e.postRecv(mb, procs[dst])
		}
		if fifo := unmatched[mb]; len(fifo) > 0 && fifo[0].send != send {
			if c != fifo[0].c {
				return fmt.Errorf("post %d on %s returned comm %d, want a match with comm %d", i, e.boxName(mb), c.ID, fifo[0].c.ID)
			}
			unmatched[mb] = fifo[1:]
			matched = append(matched, c)
		} else {
			ids++
			if c.ID != ids || c.hasSend != send {
				return fmt.Errorf("post %d on %s returned comm %d (send %v), want a new comm %d (send %v)", i, e.boxName(mb), c.ID, c.hasSend, ids, send)
			}
			unmatched[mb] = append(fifo, post{c, send})
		}
		// A matched transfer starts at once; an unmatched send only when it
		// is detached toward a pinned host.
		started := c.hasSend && c.hasRecv || detached && s.hosts != nil
		if (c.state == CommLatency) != started {
			return fmt.Errorf("post %d on %s: comm %d in state %d", i, e.boxName(mb), c.ID, c.state)

		}
		for _, s := range spaces {
			for d := range fuzzRanks {
				var want, got []*Comm
				for m, fifo := range unmatched {
					if e.space(m) == s && int(uint64(m)&mboxRankMask) == d {
						for _, p := range fifo {
							want = append(want, p.c)
						}
					}
				}
				// Comm IDs grow in post order.
				slices.SortFunc(want, func(a, b *Comm) int { return int(a.ID - b.ID) })
				var q matchQueue
				if d < len(s.queues) {
					q = s.queues[d]
				}
				for c := q.head; c != nil; c = c.next {
					if !c.queued || len(got) > len(want) {
						return fmt.Errorf("post %d: queue %s>%d corrupt at comm %d", i, s.prefix, d, c.ID)
					}
					got = append(got, c)
				}
				if !slices.Equal(got, want) || len(got) > 0 && q.tail != got[len(got)-1] || len(got) == 0 && q.tail != nil {
					return fmt.Errorf("post %d: queue %s>%d holds %v, want %v", i, s.prefix, d, commIDs(got), commIDs(want))
				}
			}
		}
		for _, c := range matched {
			if c.next != nil || c.queued {
				return fmt.Errorf("post %d: matched comm %d still linked (next %v, queued %v)", i, c.ID, c.next != nil, c.queued)
			}
		}
	}
	return nil
}

func commIDs(cs []*Comm) []int64 {
	ids := make([]int64, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

// FuzzMatchQueues checks the per-destination match queues against per-mailbox
// FIFO matching on arbitrary post sequences (see checkMatchSequence).
func FuzzMatchQueues(f *testing.F) {
	// A backlog of three sends 1>0 drained by three receives.
	f.Add([]byte{0x02, 0x02, 0x02, 0x22, 0x22, 0x22})
	// Sends from ranks 1 and 2 interleaved toward rank 0, received from 2
	// first: each receive passes the other source's queued sends.
	f.Add([]byte{0x02, 0x04, 0x02, 0x04, 0x24, 0x22, 0x24, 0x22})
	// A receive 1>3 posted before its send.
	f.Add([]byte{0x3a, 0x1a})
	// A detached send 2>1 on the pinned space starts before its receive,
	// which then claims it.
	f.Add([]byte{0x4d, 0x2d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkMatchSequence(data); err != nil {
			t.Fatal(err)
		}
	})
}
