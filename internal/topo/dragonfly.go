package topo

import "fmt"

// Routing selects how a Dragonfly picks paths for inter-group flows.
type Routing int

const (
	// RouteMinimal always takes the direct path: at most local cable,
	// global cable, local cable.
	RouteMinimal Routing = iota
	// RouteValiant always detours through a deterministically chosen
	// intermediate group (Valiant load balancing), trading path length for
	// spread under adversarial traffic. Falls back to minimal when fewer
	// than three groups exist.
	RouteValiant
	// RouteAdaptive decides per flow: a symmetric hash of the host pair
	// picks minimal or Valiant with equal probability — a deterministic
	// stand-in for congestion-adaptive (UGAL-style) selection that keeps
	// replays reproducible.
	RouteAdaptive
)

// ParseRouting maps the platform.Spec "routing" field to a Routing mode.
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "", "minimal":
		return RouteMinimal, nil
	case "valiant":
		return RouteValiant, nil
	case "adaptive":
		return RouteAdaptive, nil
	}
	return 0, fmt.Errorf(`topo: unknown dragonfly "routing" %q (want minimal, valiant, or adaptive)`, s)
}

func (r Routing) String() string {
	switch r {
	case RouteMinimal:
		return "minimal"
	case RouteValiant:
		return "valiant"
	case RouteAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Routing(%d)", int(r))
}

// Dragonfly is the Kim/Dally hierarchical topology: groups of fully
// connected routers, each router carrying hostsPer endpoints, and every
// group pair joined by one global cable. The router terminating the global
// cable from group g to group x is chosen round-robin over the group's
// routers, so global traffic spreads across routers the way distributed
// global ports do on real machines.
//
// All links are directional: a local cable rs->rd is a different link from
// rd->rs, and each group pair has one global link per direction, so
// opposing traffic never falsely contends.
type Dragonfly struct {
	groups, routers, hostsPer int
	routing                   Routing
	hosts                     int
	localBase, globalBase     int
}

// NewDragonfly builds a dragonfly shape. Field names in errors refer to
// the platform.Spec JSON fields that carry the values.
func NewDragonfly(groups, routersPerGroup, hostsPerRouter int, routing Routing) (*Dragonfly, error) {
	if groups < 1 {
		return nil, fmt.Errorf(`topo: dragonfly "groups" must be at least 1, got %d`, groups)
	}
	if routersPerGroup < 1 {
		return nil, fmt.Errorf(`topo: dragonfly "routers_per_group" must be at least 1, got %d`, routersPerGroup)
	}
	if hostsPerRouter < 1 {
		return nil, fmt.Errorf(`topo: dragonfly "hosts_per_router" must be at least 1, got %d`, hostsPerRouter)
	}
	switch routing {
	case RouteMinimal, RouteValiant, RouteAdaptive:
	default:
		return nil, fmt.Errorf(`topo: dragonfly "routing" mode %d unknown`, int(routing))
	}
	hosts := groups * routersPerGroup
	if hosts > maxHosts/hostsPerRouter {
		return nil, fmt.Errorf(`topo: dragonfly "groups"*"routers_per_group"*"hosts_per_router" = %d*%d*%d exceeds the %d-host limit`,
			groups, routersPerGroup, hostsPerRouter, maxHosts)
	}
	hosts *= hostsPerRouter
	t := &Dragonfly{
		groups: groups, routers: routersPerGroup, hostsPer: hostsPerRouter,
		routing: routing, hosts: hosts,
	}
	t.localBase = 2 * hosts
	t.globalBase = t.localBase + groups*routersPerGroup*(routersPerGroup-1)
	return t, nil
}

// Hosts implements Topology.
func (t *Dragonfly) Hosts() int { return t.hosts }

// Groups, RoutersPerGroup, and HostsPerRouter expose the shape.
func (t *Dragonfly) Groups() int          { return t.groups }
func (t *Dragonfly) RoutersPerGroup() int { return t.routers }
func (t *Dragonfly) HostsPerRouter() int  { return t.hostsPer }

// local returns the id of the directional intra-group link rs->rd (local
// router indices, rs != rd) in group g.
func (t *Dragonfly) local(g, rs, rd int) int {
	o := rd
	if rd > rs {
		o--
	}
	return t.localBase + (g*t.routers+rs)*(t.routers-1) + o
}

// global returns the id of the directional inter-group link gs->gd.
func (t *Dragonfly) global(gs, gd int) int {
	o := gd
	if gd > gs {
		o--
	}
	return t.globalBase + gs*(t.groups-1) + o
}

// gateway returns the local index of the router in group g that terminates
// the global cable between g and group x.
func (t *Dragonfly) gateway(g, x int) int {
	s := x
	if x > g {
		s--
	}
	return s % t.routers
}

// Links implements Topology: NIC links, then the directional local links
// of every group, then the directional global links of every group pair.
func (t *Dragonfly) Links() []LinkDesc {
	n := 2*t.hosts + t.groups*t.routers*(t.routers-1) + t.groups*(t.groups-1)
	descs := appendHostLinks(make([]LinkDesc, 0, n), t.hosts, "h%d-up", "h%d-down")
	for g := 0; g < t.groups; g++ {
		for rs := 0; rs < t.routers; rs++ {
			for rd := 0; rd < t.routers; rd++ {
				if rd == rs {
					continue
				}
				descs = append(descs, LinkDesc{Name: fmt.Sprintf("g%d-r%d-r%d", g, rs, rd), Class: ClassLocal})
			}
		}
	}
	for gs := 0; gs < t.groups; gs++ {
		for gd := 0; gd < t.groups; gd++ {
			if gd == gs {
				continue
			}
			descs = append(descs, LinkDesc{Name: fmt.Sprintf("g%d-g%d", gs, gd), Class: ClassGlobal})
		}
	}
	return descs
}

// hop moves from local router cur in group g to the gateway for next and
// crosses the global cable g->next, returning the extended buffer and the
// arrival router's local index in next.
func (t *Dragonfly) hop(buf []int, g, cur, next int) ([]int, int) {
	if gw := t.gateway(g, next); cur != gw {
		buf = append(buf, t.local(g, cur, gw))
		cur = gw
	}
	buf = append(buf, t.global(g, next))
	return buf, t.gateway(next, g)
}

// AppendRoute implements Topology. Minimal routes are NIC, (local), global,
// (local), NIC — at most 5 links; Valiant routes add one global and at most
// one local for the intermediate group — at most 7.
func (t *Dragonfly) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	rs, rd := src/t.hostsPer, dst/t.hostsPer
	gs, gd := rs/t.routers, rd/t.routers
	ls, ld := rs%t.routers, rd%t.routers

	buf = append(buf, hostUp(src))
	switch {
	case rs == rd:
		// Same router: NIC links only.
	case gs == gd:
		buf = append(buf, t.local(gs, ls, ld))
	default:
		valiant := false
		switch t.routing {
		case RouteValiant:
			valiant = t.groups > 2
		case RouteAdaptive:
			valiant = t.groups > 2 && pairMix(src, dst)&1 == 1
		}
		cur := ls
		if valiant {
			// Deterministic intermediate group, skipping src's and dst's.
			gi := int((pairMix(src, dst) >> 8) % uint64(t.groups-2))
			lo, hi := gs, gd
			if lo > hi {
				lo, hi = hi, lo
			}
			if gi >= lo {
				gi++
			}
			if gi >= hi {
				gi++
			}
			buf, cur = t.hop(buf, gs, cur, gi)
			buf, cur = t.hop(buf, gi, cur, gd)
		} else {
			buf, cur = t.hop(buf, gs, cur, gd)
		}
		if cur != ld {
			buf = append(buf, t.local(gd, cur, ld))
		}
	}
	return append(buf, hostDown(dst))
}

var _ Topology = (*Dragonfly)(nil)
