package topo

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// hostLinks returns the ids of the link a route from host h starts on and
// the link a route to h ends on: h's up and down link where it has two, its
// one link in both directions on the flat and hierarchical clusters.
func hostLinks(tp Topology, h int) (up, down int) {
	switch s := tp.(type) {
	case *Star:
		return s.hostLink(h), s.hostLink(h)
	case *Cabinets:
		return s.hostLink(h), s.hostLink(h)
	}
	return hostUp(h), hostDown(h)
}

// checkLinkTable validates the Links() table itself: unique names, ids in
// range, and every host's links in ClassHost.
func checkLinkTable(t *testing.T, tp Topology) []LinkDesc {
	t.Helper()
	descs := tp.Links()
	seen := make(map[string]bool, len(descs))
	for i, d := range descs {
		if d.Name == "" {
			t.Fatalf("link %d has empty name", i)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate link name %q", d.Name)
		}
		seen[d.Name] = true
	}
	for h := 0; h < tp.Hosts(); h++ {
		up, down := hostLinks(tp, h)
		if descs[up].Class != ClassHost || descs[down].Class != ClassHost {
			t.Fatalf("host %d NIC links not ClassHost", h)
		}
	}
	return descs
}

// checkRoute validates the invariants shared by every topology: the route
// exists for every distinct pair, starts on src's host (up) link, ends on
// dst's host (down) link, stays in range, never repeats a link (loop
// freedom), and is hop-symmetric with the reverse route. walk additionally
// verifies physical adjacency hop by hop and that the path really ends at
// dst. It returns the route for topology-specific bounds.
func checkRoute(t *testing.T, tp Topology, src, dst int, walk func(t *testing.T, route []int, src, dst int)) []int {
	t.Helper()
	route := tp.AppendRoute(nil, src, dst)
	if len(route) < 2 {
		t.Fatalf("route %d->%d too short: %v", src, dst, route)
	}
	up, _ := hostLinks(tp, src)
	_, down := hostLinks(tp, dst)
	if route[0] != up || route[len(route)-1] != down {
		t.Fatalf("route %d->%d does not span NIC links: %v", src, dst, route)
	}
	nlinks := len(tp.Links())
	seen := make(map[int]bool, len(route))
	for _, id := range route {
		if id < 0 || id >= nlinks {
			t.Fatalf("route %d->%d has out-of-range link %d", src, dst, id)
		}
		if seen[id] {
			t.Fatalf("route %d->%d repeats link %d: %v", src, dst, id, route)
		}
		seen[id] = true
	}
	if rev := tp.AppendRoute(nil, dst, src); len(rev) != len(route) {
		t.Fatalf("route %d->%d has %d links but reverse has %d", src, dst, len(route), len(rev))
	}
	walk(t, route, src, dst)
	return route
}

// --- the paper's clusters and the crossbar ---

// starWalk follows a flat-cluster route: into the switch over the source's
// host link, across the backbone, out over the destination's host link.
func starWalk(s *Star) func(t *testing.T, route []int, src, dst int) {
	return func(t *testing.T, route []int, src, dst int) {
		t.Helper()
		// Position: a host, or the switch before or after its backbone.
		const atHost, atSwitch, pastBackbone = 0, 1, 2
		at, pos := atHost, src
		for _, id := range route {
			switch {
			case at == atHost && id == s.hostLink(pos):
				at = atSwitch
			case at == atSwitch && id == 0:
				at = pastBackbone
			case at == pastBackbone && id >= 1 && id <= s.hosts:
				at, pos = atHost, id-1
			default:
				t.Fatalf("route %d->%d crosses link %d at position %d/%d: %v", src, dst, id, at, pos, route)
			}
		}
		if at != atHost || pos != dst {
			t.Fatalf("route %d->%d ends at position %d/%d", src, dst, at, pos)
		}
	}
}

// crossbarWalk follows a crossbar route: up from the source into the
// fabric, down from it to the destination.
func crossbarWalk(t *testing.T, route []int, src, dst int) {
	t.Helper()
	atHost, pos := true, src
	for _, id := range route {
		h, down := id/2, id%2 == 1
		switch {
		case atHost && !down && h == pos:
			atHost = false
		case !atHost && down:
			atHost, pos = true, h
		default:
			t.Fatalf("route %d->%d crosses link %d at atHost=%v pos=%d", src, dst, id, atHost, pos)
		}
	}
	if !atHost || pos != dst {
		t.Fatalf("route %d->%d ends at atHost=%v pos=%d", src, dst, atHost, pos)
	}
}

// cabinetsWalk follows a hierarchical-cluster route. A host link joins a
// host and its cabinet, a cabinet uplink joins the cabinet and the
// backbone, and the cabinet switch and the backbone are crossed from their
// ingress to their egress side.
func cabinetsWalk(c *Cabinets) func(t *testing.T, route []int, src, dst int) {
	return func(t *testing.T, route []int, src, dst int) {
		t.Helper()
		const atHost, atCabinet, cabinetEgress, atBackbone, backboneEgress = 0, 1, 2, 3, 4
		at, pos := atHost, src // pos: a host, or a cabinet when at a cabinet
		hostBase := 1 + 2*c.cabinets
		for _, id := range route {
			switch {
			case at == atHost && id == c.hostLink(pos):
				at, pos = atCabinet, pos/c.perCabinet
			case at == cabinetEgress && id >= hostBase && (id-hostBase)/c.perCabinet == pos:
				at, pos = atHost, id-hostBase
			case at == atCabinet && id == 1+2*pos:
				at = cabinetEgress
			case at == atCabinet && id == 2+2*pos:
				at = atBackbone
			case at == atBackbone && id == 0:
				at = backboneEgress
			case at == backboneEgress && id >= 1 && id < hostBase && id%2 == 0:
				at, pos = cabinetEgress, (id-2)/2
			default:
				t.Fatalf("route %d->%d crosses link %d at position %d/%d: %v", src, dst, id, at, pos, route)
			}
		}
		if at != atHost || pos != dst {
			t.Fatalf("route %d->%d ends at position %d/%d", src, dst, at, pos)
		}
	}
}

// checkAllRoutes runs checkRoute on every ordered pair of distinct hosts
// and requires each route to have the hop count hops gives it.
func checkAllRoutes(t *testing.T, tp Topology, walk func(t *testing.T, route []int, src, dst int), hops func(src, dst int) int) {
	t.Helper()
	for src := 0; src < tp.Hosts(); src++ {
		for dst := 0; dst < tp.Hosts(); dst++ {
			if src == dst {
				continue
			}
			route := checkRoute(t, tp, src, dst, walk)
			if want := hops(src, dst); len(route) != want {
				t.Fatalf("route %d->%d has %d links, want %d", src, dst, len(route), want)
			}
		}
	}
}

func TestStarRouteProperties(t *testing.T) {
	for _, hosts := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			s, err := NewStar(hosts)
			if err != nil {
				t.Fatal(err)
			}
			if descs := checkLinkTable(t, s); len(descs) != 1+hosts {
				t.Fatalf("links = %d, want %d", len(descs), 1+hosts)
			}
			checkAllRoutes(t, s, starWalk(s), func(int, int) int { return 3 })
		})
	}
}

func TestCrossbarRouteProperties(t *testing.T) {
	for _, hosts := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			x, err := NewCrossbar(hosts)
			if err != nil {
				t.Fatal(err)
			}
			if descs := checkLinkTable(t, x); len(descs) != 2*hosts {
				t.Fatalf("links = %d, want %d", len(descs), 2*hosts)
			}
			checkAllRoutes(t, x, crossbarWalk, func(int, int) int { return 2 })
		})
	}
}

func TestCabinetsRouteProperties(t *testing.T) {
	for _, shape := range []struct{ c, p int }{{1, 1}, {1, 3}, {2, 3}, {3, 2}, {4, 1}} {
		t.Run(fmt.Sprintf("c=%d/p=%d", shape.c, shape.p), func(t *testing.T) {
			c, err := NewCabinets(shape.c, shape.p)
			if err != nil {
				t.Fatal(err)
			}
			hosts := shape.c * shape.p
			if c.Hosts() != hosts {
				t.Fatalf("hosts = %d, want %d", c.Hosts(), hosts)
			}
			descs := checkLinkTable(t, c)
			if want := 1 + 2*shape.c + hosts; len(descs) != want {
				t.Fatalf("links = %d, want %d", len(descs), want)
			}
			for id, d := range descs {
				want := ClassHost
				switch {
				case id == 0:
					want = ClassFabric
				case id <= 2*shape.c:
					want = ClassCabinet
				}
				if d.Class != want {
					t.Fatalf("link %d (%s) has class %s, want %s", id, d.Name, d.Class, want)
				}
			}
			checkAllRoutes(t, c, cabinetsWalk(c), func(src, dst int) int {
				if src/shape.p == dst/shape.p {
					return 3 // host link, cabinet switch, host link
				}
				return 5 // host link, uplink, backbone, uplink, host link
			})
		})
	}
}

// --- fat tree ---

// ftWalk follows a fat-tree route through the physical switch graph,
// decoding every cable id back into (boundary, lower label, upper digit)
// and checking adjacency at each hop.
func ftWalk(ft *FatTree) func(t *testing.T, route []int, src, dst int) {
	return func(t *testing.T, route []int, src, dst int) {
		t.Helper()
		// Position: tier 0 = at a host, tier l >= 1 = at switch (l, label).
		tier, label := 0, src
		for _, id := range route {
			if id < 2*ft.hosts {
				h, down := id/2, id%2 == 1
				if !down {
					if tier != 0 || label != h {
						t.Fatalf("up NIC link of host %d crossed at tier %d label %d", h, tier, label)
					}
					tier, label = 1, h/ft.radix
				} else {
					if tier != 1 || label != h/ft.radix {
						t.Fatalf("down NIC link of host %d crossed at tier %d label %d", h, tier, label)
					}
					tier, label = 0, h
				}
				continue
			}
			c := id - 2*ft.hosts
			down := c%2 == 1
			c /= 2
			x := c % ft.radix
			c /= ft.radix
			w := c % ft.tier
			l := c/ft.tier + 1
			upper := w + (x-ft.digit(w, l-1))*ft.pow[l-1]
			if !down {
				if tier != l || label != w {
					t.Fatalf("up cable (l=%d w=%d x=%d) crossed at tier %d label %d", l, w, x, tier, label)
				}
				tier, label = l+1, upper
			} else {
				if tier != l+1 || label != upper {
					t.Fatalf("down cable (l=%d w=%d x=%d) crossed at tier %d label %d", l, w, x, tier, label)
				}
				tier, label = l, w
			}
		}
		if tier != 0 || label != dst {
			t.Fatalf("route %d->%d ends at tier %d label %d", src, dst, tier, label)
		}
	}
}

func TestFatTreeRouteProperties(t *testing.T) {
	for _, shape := range []struct{ k, n int }{{2, 1}, {2, 2}, {2, 4}, {3, 2}, {4, 3}} {
		t.Run(fmt.Sprintf("k=%d/n=%d", shape.k, shape.n), func(t *testing.T) {
			ft, err := NewFatTree(shape.k, shape.n)
			if err != nil {
				t.Fatal(err)
			}
			descs := checkLinkTable(t, ft)
			if want := 2 * ft.Hosts() * shape.n; len(descs) != want {
				t.Fatalf("links = %d, want %d", len(descs), want)
			}
			walk := ftWalk(ft)
			for src := 0; src < ft.Hosts(); src++ {
				for dst := 0; dst < ft.Hosts(); dst++ {
					if src == dst {
						continue
					}
					route := checkRoute(t, ft, src, dst, walk)
					if len(route) > 2*shape.n {
						t.Fatalf("route %d->%d has %d links, bound 2*levels = %d", src, dst, len(route), 2*shape.n)
					}
				}
			}
		})
	}
}

// TestFatTreeDestinationConvergence pins the deterministic up*/down*
// discipline: all flows toward one destination descend through the same
// ancestor cables (the in-cast tree), so their down paths coincide.
func TestFatTreeDestinationConvergence(t *testing.T) {
	ft, err := NewFatTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := 5
	var downTail []int
	for src := 0; src < ft.Hosts(); src++ {
		if src == dst {
			continue
		}
		route := ft.AppendRoute(nil, src, dst)
		// The descent from the common top tier is the last levels links.
		if len(route) < 2*ft.Levels() {
			continue // pair under a lower ancestor
		}
		tail := route[len(route)-ft.Levels():]
		if downTail == nil {
			downTail = append([]int(nil), tail...)
			continue
		}
		for i := range tail {
			if tail[i] != downTail[i] {
				t.Fatalf("src %d descends via %v, others via %v", src, tail, downTail)
			}
		}
	}
}

// --- dragonfly ---

// dfWalk follows a dragonfly route through the router graph.
func dfWalk(df *Dragonfly) func(t *testing.T, route []int, src, dst int) {
	return func(t *testing.T, route []int, src, dst int) {
		t.Helper()
		atHost, pos := true, src // pos = host id, or global router index when !atHost
		for _, id := range route {
			switch {
			case id < 2*df.hosts:
				h, down := id/2, id%2 == 1
				if !down {
					if !atHost || pos != h {
						t.Fatalf("up NIC of host %d crossed at atHost=%v pos=%d", h, atHost, pos)
					}
					atHost, pos = false, h/df.hostsPer
				} else {
					if atHost || pos != h/df.hostsPer {
						t.Fatalf("down NIC of host %d crossed at atHost=%v pos=%d", h, atHost, pos)
					}
					atHost, pos = true, h
				}
			case id < df.globalBase:
				v := id - df.localBase
				o := v % (df.routers - 1)
				v /= df.routers - 1
				rs := v % df.routers
				g := v / df.routers
				rd := o
				if rd >= rs {
					rd++
				}
				if atHost || pos != g*df.routers+rs {
					t.Fatalf("local link g%d r%d->r%d crossed at atHost=%v pos=%d", g, rs, rd, atHost, pos)
				}
				pos = g*df.routers + rd
			default:
				v := id - df.globalBase
				o := v % (df.groups - 1)
				gs := v / (df.groups - 1)
				gd := o
				if gd >= gs {
					gd++
				}
				if atHost || pos != gs*df.routers+df.gateway(gs, gd) {
					t.Fatalf("global link g%d->g%d crossed at atHost=%v pos=%d", gs, gd, atHost, pos)
				}
				pos = gd*df.routers + df.gateway(gd, gs)
			}
		}
		if !atHost || pos != dst {
			t.Fatalf("route %d->%d ends at atHost=%v pos=%d", src, dst, atHost, pos)
		}
	}
}

func TestDragonflyRouteProperties(t *testing.T) {
	for _, shape := range []struct{ g, a, p int }{{1, 2, 2}, {2, 1, 3}, {2, 2, 2}, {3, 4, 2}, {5, 2, 3}} {
		for _, mode := range []Routing{RouteMinimal, RouteValiant, RouteAdaptive} {
			t.Run(fmt.Sprintf("g=%d/a=%d/p=%d/%s", shape.g, shape.a, shape.p, mode), func(t *testing.T) {
				df, err := NewDragonfly(shape.g, shape.a, shape.p, mode)
				if err != nil {
					t.Fatal(err)
				}
				checkLinkTable(t, df)
				bound := 5 // NIC, local, global, local, NIC
				if mode != RouteMinimal {
					bound = 7 // one extra global and local for the detour
				}
				walk := dfWalk(df)
				for src := 0; src < df.Hosts(); src++ {
					for dst := 0; dst < df.Hosts(); dst++ {
						if src == dst {
							continue
						}
						route := checkRoute(t, df, src, dst, walk)
						if len(route) > bound {
							t.Fatalf("route %d->%d has %d links, bound %d", src, dst, len(route), bound)
						}
					}
				}
			})
		}
	}
}

// TestDragonflyAdaptiveIsMinimalOrValiant pins the per-flow selection: an
// adaptive route always equals the pair's minimal route or its Valiant
// route, never a third path, and the choice is deterministic.
func TestDragonflyAdaptiveIsMinimalOrValiant(t *testing.T) {
	mk := func(mode Routing) *Dragonfly {
		df, err := NewDragonfly(4, 3, 2, mode)
		if err != nil {
			t.Fatal(err)
		}
		return df
	}
	min, val, ad := mk(RouteMinimal), mk(RouteValiant), mk(RouteAdaptive)
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	sawMin, sawVal := false, false
	for src := 0; src < ad.Hosts(); src++ {
		for dst := 0; dst < ad.Hosts(); dst++ {
			if src == dst {
				continue
			}
			r := ad.AppendRoute(nil, src, dst)
			if again := ad.AppendRoute(nil, src, dst); !eq(r, again) {
				t.Fatalf("adaptive route %d->%d not deterministic", src, dst)
			}
			m, v := min.AppendRoute(nil, src, dst), val.AppendRoute(nil, src, dst)
			switch {
			case eq(r, m):
				sawMin = true
			case eq(r, v):
				sawVal = true
			default:
				t.Fatalf("adaptive route %d->%d is neither minimal %v nor valiant %v: %v", src, dst, m, v, r)
			}
		}
	}
	if !sawMin || !sawVal {
		t.Fatalf("adaptive selection degenerate: minimal=%v valiant=%v", sawMin, sawVal)
	}
}

// --- torus ---

// torusWalk follows a torus route node by node through the grid.
func torusWalk(ts *Torus) func(t *testing.T, route []int, src, dst int) {
	nd := len(ts.dims)
	return func(t *testing.T, route []int, src, dst int) {
		t.Helper()
		atHost, node := true, src
		for _, id := range route {
			if id < 2*ts.hosts {
				h, down := id/2, id%2 == 1
				if !down {
					if !atHost || node != h {
						t.Fatalf("up NIC of %d crossed at atHost=%v node=%d", h, atHost, node)
					}
					atHost = false
				} else {
					if atHost || node != h {
						t.Fatalf("down NIC of %d crossed at atHost=%v node=%d", h, atHost, node)
					}
					atHost = true
				}
				continue
			}
			v := id - 2*ts.hosts
			minus := v%2 == 1
			v /= 2
			d := v % nd
			from := v / nd
			if atHost || node != from {
				t.Fatalf("neighbor link of node %d crossed at atHost=%v node=%d", from, atHost, node)
			}
			stride := 1
			for i := 0; i < d; i++ {
				stride *= ts.dims[i]
			}
			c := (from / stride) % ts.dims[d]
			if minus {
				if c == 0 {
					node = from + (ts.dims[d]-1)*stride
				} else {
					node = from - stride
				}
			} else {
				if c == ts.dims[d]-1 {
					node = from - (ts.dims[d]-1)*stride
				} else {
					node = from + stride
				}
			}
		}
		if !atHost || node != dst {
			t.Fatalf("route %d->%d ends at atHost=%v node=%d", src, dst, atHost, node)
		}
	}
}

func TestTorusRouteProperties(t *testing.T) {
	for _, dims := range [][]int{{2, 2}, {4, 4}, {3, 5}, {2, 2, 2}, {4, 3, 2}, {5, 4, 3}} {
		t.Run(fmt.Sprintf("%v", dims), func(t *testing.T) {
			ts, err := NewTorus(dims)
			if err != nil {
				t.Fatal(err)
			}
			descs := checkLinkTable(t, ts)
			if want := 2 * ts.Hosts() * (1 + len(dims)); len(descs) != want {
				t.Fatalf("links = %d, want %d", len(descs), want)
			}
			bound := 2 // NIC links
			for _, d := range dims {
				bound += d / 2
			}
			walk := torusWalk(ts)
			for src := 0; src < ts.Hosts(); src++ {
				for dst := 0; dst < ts.Hosts(); dst++ {
					if src == dst {
						continue
					}
					route := checkRoute(t, ts, src, dst, walk)
					if len(route) > bound {
						t.Fatalf("route %d->%d has %d links, bound %d", src, dst, len(route), bound)
					}
				}
			}
		})
	}
}

// --- shape validation ---

func TestShapeValidation(t *testing.T) {
	for _, c := range []struct {
		field string
		build func() error
	}{
		{`"hosts"`, func() error { _, err := NewStar(0); return err }},
		{`"hosts"`, func() error { _, err := NewStar(maxHosts + 1); return err }},
		{`"hosts"`, func() error { _, err := NewCrossbar(-1); return err }},
		{`"hosts"`, func() error { _, err := NewCrossbar(math.MaxInt); return err }},
		{`"cabinets"`, func() error { _, err := NewCabinets(0, 1); return err }},
		{`"cabinets"`, func() error { _, err := NewCabinets(math.MaxInt, 2); return err }},
		{`"hosts_per_cabinet"`, func() error { _, err := NewCabinets(1, -3); return err }},
		{`"hosts_per_cabinet"`, func() error { _, err := NewCabinets(2, math.MaxInt/2+1); return err }},
		{`"cabinets"*"hosts_per_cabinet"`, func() error { _, err := NewCabinets(1<<12, 1<<12); return err }},
	} {
		if err := c.build(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("err = %v, want one naming %s", err, c.field)
		}
	}
	if _, err := NewCabinets(1<<11, 1<<11); err != nil {
		t.Errorf("a shape at the host limit was rejected: %v", err)
	}
	if _, err := NewFatTree(1, 2); err == nil {
		t.Error("radix 1 accepted")
	}
	if _, err := NewFatTree(2, 0); err == nil {
		t.Error("zero levels accepted")
	}
	if _, err := NewFatTree(1000, 10); err == nil {
		t.Error("overflow shape accepted")
	}
	if _, err := NewDragonfly(0, 1, 1, RouteMinimal); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := NewDragonfly(1, 0, 1, RouteMinimal); err == nil {
		t.Error("zero routers accepted")
	}
	if _, err := NewDragonfly(1, 1, 0, RouteMinimal); err == nil {
		t.Error("zero hosts-per-router accepted")
	}
	if _, err := NewDragonfly(1<<12, 1<<12, 1<<12, RouteMinimal); err == nil {
		t.Error("overflow dragonfly accepted")
	}
	if _, err := NewTorus([]int{4}); err == nil {
		t.Error("1D torus accepted")
	}
	if _, err := NewTorus([]int{2, 2, 2, 2}); err == nil {
		t.Error("4D torus accepted")
	}
	if _, err := NewTorus([]int{4, 1}); err == nil {
		t.Error("dim 1 accepted")
	}
	if _, err := NewTorus([]int{1 << 12, 1 << 12, 1 << 12}); err == nil {
		t.Error("overflow torus accepted")
	}
	if _, err := ParseRouting("bogus"); err == nil {
		t.Error("bogus routing accepted")
	}
	for _, s := range []string{"", "minimal", "valiant", "adaptive"} {
		if _, err := ParseRouting(s); err != nil {
			t.Errorf("ParseRouting(%q): %v", s, err)
		}
	}
}

// TestPairMixSymmetric pins the symmetry the adaptive/Valiant selection
// depends on for hop-symmetric reverse routes.
func TestPairMixSymmetric(t *testing.T) {
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if pairMix(a, b) != pairMix(b, a) {
				t.Fatalf("pairMix(%d,%d) != pairMix(%d,%d)", a, b, b, a)
			}
		}
	}
}
