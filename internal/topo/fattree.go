package topo

import "fmt"

// FatTree is a k-ary n-tree (Petrini & Vanneschi): radix^levels hosts under
// `levels` tiers of radix^(levels-1) switches, every switch with radix up
// and radix down ports. Host h (an n-digit base-k number) hangs off the
// tier-1 switch labelled h/k; a tier-l switch labelled w (n-1 base-k
// digits) connects upward to exactly the tier-(l+1) switches that agree
// with w on every digit except digit l-1.
//
// Routing is deterministic destination-based up*/down* ("d-mod-k" style):
// the ascent from src rewrites the switch label's low digits to the
// destination's, so by the nearest-common-ancestor tier the path stands on
// an ancestor of dst and descends along the same label. All flows toward
// one destination converge on one ancestor set — the in-cast tree real
// deterministic fat-tree routing produces — while flows to destinations
// differing in a digit spread across distinct cables.
type FatTree struct {
	radix, levels int
	hosts         int   // radix^levels
	tier          int   // switches per tier: radix^(levels-1)
	pow           []int // pow[i] = radix^i, i in 0..levels
}

// NewFatTree builds a k-ary n-tree shape. Field names in errors refer to
// the platform.Spec JSON fields that carry the values.
func NewFatTree(radix, levels int) (*FatTree, error) {
	if radix < 2 {
		return nil, fmt.Errorf(`topo: fat tree "radix" must be at least 2, got %d`, radix)
	}
	if levels < 1 {
		return nil, fmt.Errorf(`topo: fat tree "levels" must be at least 1, got %d`, levels)
	}
	hosts := 1
	for i := 0; i < levels; i++ {
		hosts *= radix
		if hosts > maxHosts {
			return nil, fmt.Errorf(`topo: fat tree "radix"^"levels" = %d^%d exceeds the %d-host limit`, radix, levels, maxHosts)
		}
	}
	t := &FatTree{radix: radix, levels: levels, hosts: hosts, tier: hosts / radix}
	t.pow = make([]int, levels+1)
	t.pow[0] = 1
	for i := 1; i <= levels; i++ {
		t.pow[i] = t.pow[i-1] * radix
	}
	return t, nil
}

// Hosts implements Topology.
func (t *FatTree) Hosts() int { return t.hosts }

// Radix returns k and Levels n of the k-ary n-tree.
func (t *FatTree) Radix() int  { return t.radix }
func (t *FatTree) Levels() int { return t.levels }

// cable returns the up-direction link id of the cable crossing tier
// boundary l (tiers l and l+1, l in 1..levels-1) between the lower switch
// labelled w and the upper switch whose free digit (digit l-1) is x. The
// down direction is cable(...)+1. Each boundary carries tier*radix =
// radix^levels cables.
func (t *FatTree) cable(l, w, x int) int {
	return 2*t.hosts + (((l-1)*t.tier+w)*t.radix+x)*2
}

// Links implements Topology: 2*hosts NIC links followed, boundary by
// boundary, by the up/down pair of every switch cable — 2*hosts*levels
// links in total.
func (t *FatTree) Links() []LinkDesc {
	descs := appendHostLinks(make([]LinkDesc, 0, 2*t.hosts*t.levels), t.hosts, "h%d-up", "h%d-down")
	for l := 1; l < t.levels; l++ {
		for w := 0; w < t.tier; w++ {
			for x := 0; x < t.radix; x++ {
				name := fmt.Sprintf("l%d-w%d-x%d", l, w, x)
				descs = append(descs,
					LinkDesc{Name: name + "-up", Class: ClassFabric},
					LinkDesc{Name: name + "-down", Class: ClassFabric},
				)
			}
		}
	}
	return descs
}

// digit returns base-radix digit i of v.
func (t *FatTree) digit(v, i int) int { return (v / t.pow[i]) % t.radix }

// AppendRoute implements Topology. The route climbs from src's tier-1
// switch to the nearest-common-ancestor tier L (L-1 cables, each rewriting
// one label digit to the destination's), then descends L-1 cables along
// the now-exact ancestor label of dst; with the two NIC links that is 2L
// links, at most 2*levels.
func (t *FatTree) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	// Nearest common ancestor tier: one above the highest differing digit.
	diff := 0
	for i, s, d := 0, src, dst; s != d; i++ {
		if s%t.radix != d%t.radix {
			diff = i
		}
		s, d = s/t.radix, d/t.radix
	}
	nca := diff + 1

	buf = append(buf, hostUp(src))
	w := src / t.radix
	// Ascent: crossing boundary l frees label digit l-1; set it to the
	// destination's host digit l so the label converges on dst's ancestry.
	for l := 1; l < nca; l++ {
		x := t.digit(dst, l)
		buf = append(buf, t.cable(l, w, x))
		w += (x - t.digit(w, l-1)) * t.pow[l-1]
	}
	// The ascent rewrote digits 0..nca-2 to dst's and the rest already
	// agreed, so w now equals dst's tier-1 label: descend straight down it.
	for l := nca - 1; l >= 1; l-- {
		buf = append(buf, t.cable(l, w, t.digit(w, l-1))+1)
	}
	return append(buf, hostDown(dst))
}

var _ Topology = (*FatTree)(nil)
