package sim

import (
	"fmt"
	"math"
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
		links[i] = &Link{Name: fmt.Sprintf("l%d", i), Bandwidth: fuzzBandwidths[int(next())%len(fuzzBandwidths)]}
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
		if err := checkAllocation(live); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
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
