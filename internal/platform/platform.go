// Package platform describes simulated execution platforms: hosts, links,
// and routing between them. It provides builders for the cluster shapes
// used in the paper — a flat cluster where all nodes hang off a single
// switch (bordereau) and a hierarchical cluster with per-cabinet switches
// joined by a backbone (graphene) — plus a full-bisection crossbar, the
// structured topology zoo (k-ary fat trees, dragonflies, and 2D/3D tori
// materialized from internal/topo with real deterministic routing), and
// the piece-wise-linear network factor model the SMPI backend relies on.
package platform

import (
	"fmt"
	"math"
	"sort"

	"tireplay/internal/sim"
)

// Platform is a set of hosts with a routing function. It implements
// sim.Router.
type Platform struct {
	// Name of the platform (e.g. "bordereau").
	Name string

	hosts   []*sim.Host
	byName  map[string]*sim.Host
	links   []*sim.Link
	routeFn func(buf []*sim.Link, src, dst *sim.Host) sim.Route

	// LoopbackLatency is the latency of a host talking to itself (intra-node
	// communication); such routes cross no link.
	LoopbackLatency float64
}

// latency is a configured latency and the Spec field it comes from.
type latency struct {
	field string
	value float64
}

// checkLatencies rejects a latency that is negative or not finite, naming
// its Spec field; the fluid model would otherwise treat a negative latency
// as zero.
func checkLatencies(name string, ls ...latency) error {
	for _, l := range ls {
		if l.value < 0 || math.IsNaN(l.value) || math.IsInf(l.value, 1) {
			return fmt.Errorf(`platform: %s: %q must be finite and non-negative, got %g`, name, l.field, l.value)
		}
	}
	return nil
}

// Hosts returns the platform's hosts in rank order.
func (p *Platform) Hosts() []*sim.Host { return p.hosts }

// Host returns the i-th host. It panics if i is out of range, as rank→host
// mapping errors are programming bugs.
func (p *Platform) Host(i int) *sim.Host { return p.hosts[i] }

// HostByName looks a host up by name.
func (p *Platform) HostByName(name string) (*sim.Host, bool) {
	h, ok := p.byName[name]
	return h, ok
}

// Links returns every link of the platform (for inspection and tests).
func (p *Platform) Links() []*sim.Link { return p.links }

// Size returns the number of hosts.
func (p *Platform) Size() int { return len(p.hosts) }

// Route implements sim.Router.
func (p *Platform) Route(src, dst *sim.Host) sim.Route {
	return p.RouteInto(nil, src, dst)
}

// RouteInto implements sim.RouterInto: the route's links are appended to
// buf, so the engine can reuse one buffer per transfer slot instead of
// allocating a slice on every routing call.
func (p *Platform) RouteInto(buf []*sim.Link, src, dst *sim.Host) sim.Route {
	if src == dst {
		return sim.Route{Links: buf, Latency: p.LoopbackLatency}
	}
	return p.routeFn(buf, src, dst)
}

// SetSpeed sets the compute rate of every host, in instructions per second.
// Calibration uses it to install measured rates before a replay.
func (p *Platform) SetSpeed(speed float64) {
	for _, h := range p.hosts {
		h.Speed = speed
	}
}

// FlatConfig parameterizes a single-switch cluster.
type FlatConfig struct {
	Name string
	// Hosts is the number of nodes.
	Hosts int
	// Speed is the per-host compute rate (instructions/s); may be
	// overwritten later by calibration.
	Speed float64
	// LinkBandwidth/LinkLatency describe each node's private link to the
	// switch.
	LinkBandwidth float64
	LinkLatency   float64
	// BackboneBandwidth/BackboneLatency describe the switch fabric crossed
	// by every inter-node transfer.
	BackboneBandwidth float64
	BackboneLatency   float64
	// LoopbackLatency for intra-node transfers.
	LoopbackLatency float64
}

// NewFlatCluster builds a bordereau-like cluster: every pair of distinct
// hosts communicates through its two private links and a shared backbone.
func NewFlatCluster(cfg FlatConfig) (*Platform, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("platform: flat cluster needs at least one host, got %d", cfg.Hosts)
	}
	if cfg.LinkBandwidth <= 0 || cfg.BackboneBandwidth <= 0 {
		return nil, fmt.Errorf("platform: non-positive bandwidth in flat cluster config")
	}
	if err := checkLatencies(cfg.Name, latency{"link_latency", cfg.LinkLatency},
		latency{"backbone_latency", cfg.BackboneLatency}, latency{"loopback_latency", cfg.LoopbackLatency}); err != nil {
		return nil, err
	}
	p := &Platform{
		Name:            cfg.Name,
		byName:          make(map[string]*sim.Host, cfg.Hosts),
		LoopbackLatency: cfg.LoopbackLatency,
	}
	backbone := &sim.Link{
		Name:      cfg.Name + "-backbone",
		Bandwidth: cfg.BackboneBandwidth,
		Latency:   cfg.BackboneLatency,
	}
	p.links = append(p.links, backbone)
	private := make(map[*sim.Host]*sim.Link, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		h := &sim.Host{Name: fmt.Sprintf("%s-%d", cfg.Name, i), Speed: cfg.Speed}
		l := &sim.Link{
			Name:      fmt.Sprintf("%s-%d-up", cfg.Name, i),
			Bandwidth: cfg.LinkBandwidth,
			Latency:   cfg.LinkLatency,
		}
		p.hosts = append(p.hosts, h)
		p.byName[h.Name] = h
		p.links = append(p.links, l)
		private[h] = l
	}
	p.routeFn = func(buf []*sim.Link, src, dst *sim.Host) sim.Route {
		ls, ok1 := private[src]
		ld, ok2 := private[dst]
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("platform %s: route between foreign hosts %s and %s", cfg.Name, src, dst))
		}
		return sim.Route{
			Links:   append(buf, ls, backbone, ld),
			Latency: ls.Latency + backbone.Latency + ld.Latency,
		}
	}
	return p, nil
}

// CrossbarConfig parameterizes a full-bisection cluster.
type CrossbarConfig struct {
	Name string
	// Hosts is the number of nodes.
	Hosts int
	// Speed is the per-host compute rate (instructions/s).
	Speed float64
	// LinkBandwidth/LinkLatency describe each node's uplink into and
	// downlink out of the switching fabric.
	LinkBandwidth float64
	LinkLatency   float64
	// LoopbackLatency for intra-node transfers.
	LoopbackLatency float64
}

// NewCrossbarCluster builds a full-bisection (non-blocking crossbar)
// cluster: each node owns a dedicated uplink and downlink, and the fabric
// itself never contends, so a transfer crosses exactly the sender's uplink
// and the receiver's downlink. Disjoint transfers thus share no link at
// all — the topology of modern fat-tree clusters at full bisection, and the
// shape under which the kernel's per-component incremental solver pays off
// most.
func NewCrossbarCluster(cfg CrossbarConfig) (*Platform, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("platform: crossbar cluster needs at least one host, got %d", cfg.Hosts)
	}
	if cfg.LinkBandwidth <= 0 {
		return nil, fmt.Errorf("platform: non-positive bandwidth in crossbar cluster config")
	}
	if err := checkLatencies(cfg.Name, latency{"link_latency", cfg.LinkLatency},
		latency{"loopback_latency", cfg.LoopbackLatency}); err != nil {
		return nil, err
	}
	p := &Platform{
		Name:            cfg.Name,
		byName:          make(map[string]*sim.Host, cfg.Hosts),
		LoopbackLatency: cfg.LoopbackLatency,
	}
	type ports struct{ up, down *sim.Link }
	links := make(map[*sim.Host]ports, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		h := &sim.Host{Name: fmt.Sprintf("%s-%d", cfg.Name, i), Speed: cfg.Speed}
		up := &sim.Link{
			Name:      fmt.Sprintf("%s-%d-up", cfg.Name, i),
			Bandwidth: cfg.LinkBandwidth,
			Latency:   cfg.LinkLatency,
		}
		down := &sim.Link{
			Name:      fmt.Sprintf("%s-%d-down", cfg.Name, i),
			Bandwidth: cfg.LinkBandwidth,
			Latency:   cfg.LinkLatency,
		}
		p.hosts = append(p.hosts, h)
		p.byName[h.Name] = h
		p.links = append(p.links, up, down)
		links[h] = ports{up, down}
	}
	p.routeFn = func(buf []*sim.Link, src, dst *sim.Host) sim.Route {
		ls, ok1 := links[src]
		ld, ok2 := links[dst]
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("platform %s: route between foreign hosts %s and %s", cfg.Name, src, dst))
		}
		return sim.Route{
			Links:   append(buf, ls.up, ld.down),
			Latency: ls.up.Latency + ld.down.Latency,
		}
	}
	return p, nil
}

// HierConfig parameterizes a cabinet-based hierarchical cluster.
type HierConfig struct {
	Name string
	// Cabinets is the number of cabinets; HostsPerCabinet nodes sit in each.
	Cabinets        int
	HostsPerCabinet int
	Speed           float64
	// Node private links.
	LinkBandwidth float64
	LinkLatency   float64
	// Cabinet switch crossed by all intra-cabinet traffic.
	CabinetBandwidth float64
	CabinetLatency   float64
	// Backbone joining the cabinet switches.
	BackboneBandwidth float64
	BackboneLatency   float64
	LoopbackLatency   float64
}

// NewHierarchicalCluster builds a graphene-like cluster: nodes are scattered
// across cabinets interconnected by a hierarchy of switches. Intra-cabinet
// routes cross the two private links and the cabinet switch; inter-cabinet
// routes additionally cross both cabinet uplinks and the backbone.
func NewHierarchicalCluster(cfg HierConfig) (*Platform, error) {
	if cfg.Cabinets <= 0 || cfg.HostsPerCabinet <= 0 {
		return nil, fmt.Errorf("platform: hierarchical cluster needs positive cabinet/host counts")
	}
	if cfg.LinkBandwidth <= 0 || cfg.CabinetBandwidth <= 0 || cfg.BackboneBandwidth <= 0 {
		return nil, fmt.Errorf("platform: non-positive bandwidth in hierarchical cluster config")
	}
	if err := checkLatencies(cfg.Name, latency{"link_latency", cfg.LinkLatency},
		latency{"cabinet_latency", cfg.CabinetLatency}, latency{"backbone_latency", cfg.BackboneLatency},
		latency{"loopback_latency", cfg.LoopbackLatency}); err != nil {
		return nil, err
	}
	p := &Platform{
		Name:            cfg.Name,
		byName:          make(map[string]*sim.Host),
		LoopbackLatency: cfg.LoopbackLatency,
	}
	backbone := &sim.Link{
		Name:      cfg.Name + "-backbone",
		Bandwidth: cfg.BackboneBandwidth,
		Latency:   cfg.BackboneLatency,
	}
	p.links = append(p.links, backbone)
	type nodeInfo struct {
		private *sim.Link
		cabinet int
	}
	cabSwitch := make([]*sim.Link, cfg.Cabinets)
	cabUp := make([]*sim.Link, cfg.Cabinets)
	for c := 0; c < cfg.Cabinets; c++ {
		cabSwitch[c] = &sim.Link{
			Name:      fmt.Sprintf("%s-cab%d-switch", cfg.Name, c),
			Bandwidth: cfg.CabinetBandwidth,
			Latency:   cfg.CabinetLatency,
		}
		cabUp[c] = &sim.Link{
			Name:      fmt.Sprintf("%s-cab%d-up", cfg.Name, c),
			Bandwidth: cfg.CabinetBandwidth,
			Latency:   cfg.CabinetLatency,
		}
		p.links = append(p.links, cabSwitch[c], cabUp[c])
	}
	nodes := make(map[*sim.Host]nodeInfo)
	for c := 0; c < cfg.Cabinets; c++ {
		for i := 0; i < cfg.HostsPerCabinet; i++ {
			id := c*cfg.HostsPerCabinet + i
			h := &sim.Host{Name: fmt.Sprintf("%s-%d", cfg.Name, id), Speed: cfg.Speed}
			l := &sim.Link{
				Name:      fmt.Sprintf("%s-%d-up", cfg.Name, id),
				Bandwidth: cfg.LinkBandwidth,
				Latency:   cfg.LinkLatency,
			}
			p.hosts = append(p.hosts, h)
			p.byName[h.Name] = h
			p.links = append(p.links, l)
			nodes[h] = nodeInfo{private: l, cabinet: c}
		}
	}
	p.routeFn = func(buf []*sim.Link, src, dst *sim.Host) sim.Route {
		ns, ok1 := nodes[src]
		nd, ok2 := nodes[dst]
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("platform %s: route between foreign hosts %s and %s", cfg.Name, src, dst))
		}
		if ns.cabinet == nd.cabinet {
			sw := cabSwitch[ns.cabinet]
			return sim.Route{
				Links:   append(buf, ns.private, sw, nd.private),
				Latency: ns.private.Latency + sw.Latency + nd.private.Latency,
			}
		}
		links := append(buf, ns.private, cabUp[ns.cabinet], backbone, cabUp[nd.cabinet], nd.private)
		lat := 0.0
		for _, l := range links {
			lat += l.Latency
		}
		return sim.Route{Links: links, Latency: lat}
	}
	return p, nil
}

// Segment is one piece of the piece-wise-linear network model: it applies to
// messages up to MaxBytes (inclusive) and scales the base latency and
// bandwidth of the route.
type Segment struct {
	// MaxBytes is the upper bound (inclusive) of the message-size range this
	// segment covers. The last segment should use +Inf (or math.MaxFloat64).
	MaxBytes float64
	// LatFactor multiplies the route latency.
	LatFactor float64
	// BwFactor multiplies the bottleneck bandwidth to produce the per-flow
	// rate cap.
	BwFactor float64
}

// PiecewiseModel is the SMPI-style network model of Section 3.3: correction
// factors that depend on the message size, accounting for protocol switches
// (eager/rendezvous) and TCP behaviour on the cluster interconnect.
type PiecewiseModel struct {
	segments []Segment
}

// NewPiecewiseModel builds a model from segments, which are sorted by
// MaxBytes. At least one segment is required and factors must be positive.
func NewPiecewiseModel(segments []Segment) (*PiecewiseModel, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("platform: piecewise model needs at least one segment")
	}
	segs := append([]Segment(nil), segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].MaxBytes < segs[j].MaxBytes })
	for _, s := range segs {
		if s.LatFactor <= 0 || s.BwFactor <= 0 {
			return nil, fmt.Errorf("platform: non-positive factor in segment %+v", s)
		}
	}
	return &PiecewiseModel{segments: segs}, nil
}

// factors returns the factors applying to a message of the given size.
func (m *PiecewiseModel) factors(size float64) Segment {
	for _, s := range m.segments {
		if size <= s.MaxBytes {
			return s
		}
	}
	return m.segments[len(m.segments)-1]
}

// Effective implements sim.NetworkModel: the latency is scaled by the
// segment's LatFactor and the flow is capped at BwFactor times the
// bottleneck bandwidth of the route.
func (m *PiecewiseModel) Effective(route sim.Route, size float64) (latency, rateCap float64) {
	s := m.factors(size)
	latency = route.Latency * s.LatFactor
	bottleneck := 0.0
	for i, l := range route.Links {
		if i == 0 || l.Bandwidth < bottleneck {
			bottleneck = l.Bandwidth
		}
	}
	if bottleneck > 0 {
		rateCap = bottleneck * s.BwFactor
	}
	return latency, rateCap
}

var _ sim.NetworkModel = (*PiecewiseModel)(nil)
var _ sim.Router = (*Platform)(nil)
var _ sim.RouterInto = (*Platform)(nil)
