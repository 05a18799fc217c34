package platform

import (
	"fmt"
	"maps"
	"slices"

	"tireplay/internal/sim"
	"tireplay/internal/topo"
)

// linkParams carries the bandwidth/latency pair a topology link class gets,
// plus the prefix of the Spec JSON fields they come from ("link" for
// link_bandwidth and link_latency), for error messages.
type linkParams struct {
	bandwidth, latency float64
	field              string
}

// buildTopoPlatform materializes a topo.Topology into a Platform: one
// sim.Host per endpoint, one sim.Link per directional topology link (with
// parameters chosen by link class), and a routeFn adapting the topology's
// integer routes to sim.RouterInto. The int scratch buffer is reused across
// calls, which is safe because scenarios sharing one *Platform never run
// concurrently (documented on Spec.Build and the constructors).
func buildTopoPlatform(name string, t topo.Topology, speed float64, params map[topo.Class]linkParams, loopback float64) (*Platform, error) {
	descs := t.Links()
	for _, d := range descs {
		pr, ok := params[d.Class]
		if !ok || pr.bandwidth <= 0 {
			return nil, fmt.Errorf(`platform: %s: %q must be positive for %s links`, name, pr.field+"_bandwidth", d.Class)
		}
	}
	lats := []latency{{"loopback_latency", loopback}}
	for _, c := range slices.Sorted(maps.Keys(params)) {
		lats = append(lats, latency{params[c].field + "_latency", params[c].latency})
	}
	if err := checkLatencies(name, lats...); err != nil {
		return nil, err
	}
	n := t.Hosts()
	p := &Platform{
		Name:            name,
		byName:          make(map[string]*sim.Host, n),
		LoopbackLatency: loopback,
	}
	index := make(map[*sim.Host]int, n)
	for i := 0; i < n; i++ {
		h := &sim.Host{Name: fmt.Sprintf("%s-%d", name, i), Speed: speed}
		p.hosts = append(p.hosts, h)
		p.byName[h.Name] = h
		index[h] = i
	}
	links := make([]*sim.Link, len(descs))
	for id, d := range descs {
		pr := params[d.Class]
		links[id] = &sim.Link{
			Name:      name + "-" + d.Name,
			Bandwidth: pr.bandwidth,
			Latency:   pr.latency,
		}
	}
	p.links = links
	scratch := make([]int, 0, 64)
	p.routeFn = func(buf []*sim.Link, src, dst *sim.Host) sim.Route {
		si, ok1 := index[src]
		di, ok2 := index[dst]
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("platform %s: route between foreign hosts %s and %s", name, src, dst))
		}
		scratch = t.AppendRoute(scratch[:0], si, di)
		lat := 0.0
		for _, id := range scratch {
			l := links[id]
			buf = append(buf, l)
			lat += l.Latency
		}
		return sim.Route{Links: buf, Latency: lat}
	}
	return p, nil
}

// FatTreeConfig parameterizes a k-ary n-tree cluster (radix^levels hosts).
type FatTreeConfig struct {
	Name string
	// Radix is the switch arity k, Levels the tree depth n.
	Radix, Levels int
	// Speed is the per-host compute rate (instructions/s).
	Speed float64
	// LinkBandwidth/LinkLatency describe each node's NIC links.
	LinkBandwidth float64
	LinkLatency   float64
	// BackboneBandwidth/BackboneLatency describe the switch-to-switch cables.
	BackboneBandwidth float64
	BackboneLatency   float64
	// LoopbackLatency for intra-node transfers.
	LoopbackLatency float64
}

// NewFatTree builds a k-ary n-tree cluster with deterministic
// destination-based up*/down* routing (see topo.FatTree). Scenarios sharing
// the returned *Platform must not run concurrently.
func NewFatTree(cfg FatTreeConfig) (*Platform, error) {
	t, err := topo.NewFatTree(cfg.Radix, cfg.Levels)
	if err != nil {
		return nil, err
	}
	return buildTopoPlatform(cfg.Name, t, cfg.Speed, map[topo.Class]linkParams{
		topo.ClassHost:   {cfg.LinkBandwidth, cfg.LinkLatency, "link"},
		topo.ClassFabric: {cfg.BackboneBandwidth, cfg.BackboneLatency, "backbone"},
	}, cfg.LoopbackLatency)
}

// DragonflyConfig parameterizes a dragonfly cluster
// (groups*routers_per_group*hosts_per_router hosts).
type DragonflyConfig struct {
	Name string
	// Groups of RoutersPerGroup fully connected routers, each with
	// HostsPerRouter endpoints.
	Groups, RoutersPerGroup, HostsPerRouter int
	// Routing is "minimal" (default), "valiant", or "adaptive".
	Routing string
	// Speed is the per-host compute rate (instructions/s).
	Speed float64
	// LinkBandwidth/LinkLatency describe each node's NIC links.
	LinkBandwidth float64
	LinkLatency   float64
	// LocalBandwidth/LocalLatency describe intra-group router cables.
	LocalBandwidth float64
	LocalLatency   float64
	// GlobalBandwidth/GlobalLatency describe the inter-group cables.
	GlobalBandwidth float64
	GlobalLatency   float64
	// LoopbackLatency for intra-node transfers.
	LoopbackLatency float64
}

// NewDragonfly builds a dragonfly cluster with deterministic per-flow path
// selection (see topo.Dragonfly). Scenarios sharing the returned *Platform
// must not run concurrently.
func NewDragonfly(cfg DragonflyConfig) (*Platform, error) {
	routing, err := topo.ParseRouting(cfg.Routing)
	if err != nil {
		return nil, err
	}
	t, err := topo.NewDragonfly(cfg.Groups, cfg.RoutersPerGroup, cfg.HostsPerRouter, routing)
	if err != nil {
		return nil, err
	}
	return buildTopoPlatform(cfg.Name, t, cfg.Speed, map[topo.Class]linkParams{
		topo.ClassHost:   {cfg.LinkBandwidth, cfg.LinkLatency, "link"},
		topo.ClassLocal:  {cfg.LocalBandwidth, cfg.LocalLatency, "local"},
		topo.ClassGlobal: {cfg.GlobalBandwidth, cfg.GlobalLatency, "global"},
	}, cfg.LoopbackLatency)
}

// TorusConfig parameterizes a 2D/3D torus cluster (product of Dims hosts).
type TorusConfig struct {
	Name string
	// Dims lists 2 or 3 dimension radii, each at least 2.
	Dims []int
	// Speed is the per-host compute rate (instructions/s).
	Speed float64
	// LinkBandwidth/LinkLatency describe each node's injection/ejection links.
	LinkBandwidth float64
	LinkLatency   float64
	// BackboneBandwidth/BackboneLatency describe the node-to-node ring cables.
	BackboneBandwidth float64
	BackboneLatency   float64
	// LoopbackLatency for intra-node transfers.
	LoopbackLatency float64
}

// NewTorus builds a torus cluster with dimension-order routing (see
// topo.Torus). Scenarios sharing the returned *Platform must not run
// concurrently.
func NewTorus(cfg TorusConfig) (*Platform, error) {
	t, err := topo.NewTorus(cfg.Dims)
	if err != nil {
		return nil, err
	}
	return buildTopoPlatform(cfg.Name, t, cfg.Speed, map[topo.Class]linkParams{
		topo.ClassHost:   {cfg.LinkBandwidth, cfg.LinkLatency, "link"},
		topo.ClassFabric: {cfg.BackboneBandwidth, cfg.BackboneLatency, "backbone"},
	}, cfg.LoopbackLatency)
}
