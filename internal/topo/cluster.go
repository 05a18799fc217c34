package topo

import "fmt"

// checkCount rejects a count field below 1 or past the host limit.
func checkCount(shape, field string, n int) error {
	if n < 1 {
		return fmt.Errorf(`topo: %s %q must be at least 1, got %d`, shape, field, n)
	}
	if n > maxHosts {
		return fmt.Errorf(`topo: %s %q = %d exceeds the %d-host limit`, shape, field, n, maxHosts)
	}
	return nil
}

// Star is the paper's flat cluster (bordereau): each host hangs off one
// switch by a link carrying both directions, and a transfer crosses the
// sender's link, the switch backbone, and the receiver's link.
type Star struct{ hosts int }

// NewStar builds a flat cluster of hosts endpoints.
func NewStar(hosts int) (*Star, error) {
	if err := checkCount("flat cluster", "hosts", hosts); err != nil {
		return nil, err
	}
	return &Star{hosts: hosts}, nil
}

// Hosts implements Topology.
func (t *Star) Hosts() int { return t.hosts }

// hostLink returns the id of host h's link to the switch.
func (t *Star) hostLink(h int) int { return 1 + h }

// Links implements Topology: the backbone, then one link per host.
func (t *Star) Links() []LinkDesc {
	descs := append(make([]LinkDesc, 0, 1+t.hosts), LinkDesc{Name: "backbone", Class: ClassFabric})
	for h := 0; h < t.hosts; h++ {
		descs = append(descs, LinkDesc{Name: fmt.Sprintf("%d-up", h), Class: ClassHost})
	}
	return descs
}

// AppendRoute implements Topology.
func (t *Star) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	return append(buf, t.hostLink(src), 0, t.hostLink(dst))
}

// Crossbar is a full-bisection cluster: each host owns an uplink into and
// a downlink out of a fabric that never contends, so transfers between
// disjoint host pairs share no link.
type Crossbar struct{ hosts int }

// NewCrossbar builds a crossbar cluster of hosts endpoints.
func NewCrossbar(hosts int) (*Crossbar, error) {
	if err := checkCount("crossbar cluster", "hosts", hosts); err != nil {
		return nil, err
	}
	return &Crossbar{hosts: hosts}, nil
}

// Hosts implements Topology.
func (t *Crossbar) Hosts() int { return t.hosts }

// Links implements Topology: the up and down link of every host.
func (t *Crossbar) Links() []LinkDesc {
	return appendHostLinks(make([]LinkDesc, 0, 2*t.hosts), t.hosts, "%d-up", "%d-down")
}

// AppendRoute implements Topology.
func (t *Crossbar) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	return append(buf, hostUp(src), hostDown(dst))
}

// Cabinets is the paper's hierarchical cluster (graphene): hosts fill
// cabinets in order and hang off their cabinet's switch by a link
// carrying both directions, and each cabinet has an uplink, also carrying
// both directions, to a shared backbone. A transfer inside a cabinet
// crosses the two host links and the cabinet switch; a transfer between
// cabinets crosses the two host links, both cabinet uplinks, and the
// backbone.
type Cabinets struct{ cabinets, perCabinet int }

// NewCabinets builds a hierarchical cluster of cabinets cabinets of
// perCabinet hosts each.
func NewCabinets(cabinets, perCabinet int) (*Cabinets, error) {
	if err := checkCount("hierarchical cluster", "cabinets", cabinets); err != nil {
		return nil, err
	}
	if err := checkCount("hierarchical cluster", "hosts_per_cabinet", perCabinet); err != nil {
		return nil, err
	}
	if cabinets > maxHosts/perCabinet {
		return nil, fmt.Errorf(`topo: hierarchical cluster "cabinets"*"hosts_per_cabinet" = %d*%d exceeds the %d-host limit`,
			cabinets, perCabinet, maxHosts)
	}
	return &Cabinets{cabinets: cabinets, perCabinet: perCabinet}, nil
}

// Hosts implements Topology.
func (t *Cabinets) Hosts() int { return t.cabinets * t.perCabinet }

// hostLink returns the id of host h's link to its cabinet; cabinet c's
// switch is link 1+2c and its uplink 2+2c.
func (t *Cabinets) hostLink(h int) int { return 1 + 2*t.cabinets + h }

// Links implements Topology: the backbone, the switch and uplink of every
// cabinet, then one link per host.
func (t *Cabinets) Links() []LinkDesc {
	descs := append(make([]LinkDesc, 0, 1+2*t.cabinets+t.Hosts()), LinkDesc{Name: "backbone", Class: ClassFabric})
	for c := 0; c < t.cabinets; c++ {
		descs = append(descs,
			LinkDesc{Name: fmt.Sprintf("cab%d-switch", c), Class: ClassCabinet},
			LinkDesc{Name: fmt.Sprintf("cab%d-up", c), Class: ClassCabinet})
	}
	for h := 0; h < t.Hosts(); h++ {
		descs = append(descs, LinkDesc{Name: fmt.Sprintf("%d-up", h), Class: ClassHost})
	}
	return descs
}

// AppendRoute implements Topology.
func (t *Cabinets) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	cs, cd := src/t.perCabinet, dst/t.perCabinet
	if cs == cd {
		return append(buf, t.hostLink(src), 1+2*cs, t.hostLink(dst))
	}
	return append(buf, t.hostLink(src), 2+2*cs, 0, 2+2*cd, t.hostLink(dst))
}

var (
	_ Topology = (*Star)(nil)
	_ Topology = (*Crossbar)(nil)
	_ Topology = (*Cabinets)(nil)
)
