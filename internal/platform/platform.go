// Package platform describes simulated execution platforms: hosts, links,
// and routing between them, plus the piece-wise-linear network factor model
// the SMPI backend relies on. Spec is the only way to build a platform: it
// picks one of the shapes of internal/topo — the paper's flat cluster
// where all nodes hang off a single switch (bordereau) and hierarchical
// cluster with per-cabinet switches joined by a backbone (graphene), a
// full-bisection crossbar, and the topology zoo of k-ary fat trees,
// dragonflies, and 2D/3D tori — and one materializer turns it into
// sim.Host and sim.Link objects routed over the shape's integer ids.
package platform

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"tireplay/internal/sim"
	"tireplay/internal/topo"
)

// Platform is a set of hosts joined by the links of a topology. It
// implements sim.Router. Routing reuses one scratch buffer, so scenarios
// sharing a *Platform must not run concurrently.
type Platform struct {
	// Name of the platform (e.g. "bordereau").
	Name string

	hosts   []*sim.Host
	links   []*sim.Link // indexed by topology link id
	topo    topo.Topology
	scratch []int

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

// linkParams carries the bandwidth/latency pair a topology link class gets,
// plus the prefix of the Spec JSON fields they come from ("link" for
// link_bandwidth and link_latency), for error messages.
type linkParams struct {
	bandwidth, latency float64
	field              string
}

// materialize turns a topology into a Platform: one sim.Host per endpoint,
// with its index as ID, and one sim.Link per topology link, with the
// parameters of its class and its index in Links() as ID.
func materialize(name string, t topo.Topology, speed float64, params map[topo.Class]linkParams, loopback float64) (*Platform, error) {
	descs := t.Links()
	for _, d := range descs {
		pr, ok := params[d.Class]
		if !ok || !(pr.bandwidth > 0) {
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
	p := &Platform{
		Name:            name,
		hosts:           make([]*sim.Host, t.Hosts()),
		links:           make([]*sim.Link, len(descs)),
		topo:            t,
		LoopbackLatency: loopback,
	}
	for i := range p.hosts {
		p.hosts[i] = &sim.Host{Name: fmt.Sprintf("%s-%d", name, i), Speed: speed, ID: i}
	}
	for id, d := range descs {
		pr := params[d.Class]
		p.links[id] = &sim.Link{Name: name + "-" + d.Name, Bandwidth: pr.bandwidth, Latency: pr.latency, ID: id}
	}
	return p, nil
}

// Hosts returns the platform's hosts in rank order.
func (p *Platform) Hosts() []*sim.Host { return p.hosts }

// Host returns the i-th host. It panics if i is out of range, as rank→host
// mapping errors are programming bugs.
func (p *Platform) Host(i int) *sim.Host { return p.hosts[i] }

// Links returns every link of the platform (for inspection and tests).
func (p *Platform) Links() []*sim.Link { return p.links }

// Size returns the number of hosts.
func (p *Platform) Size() int { return len(p.hosts) }

// owns reports whether h is one of the platform's hosts.
func (p *Platform) owns(h *sim.Host) bool {
	return h != nil && uint(h.ID) < uint(len(p.hosts)) && p.hosts[h.ID] == h
}

// Route implements sim.Router: it appends the links from src to dst to buf
// and sums their latencies left to right. A host talking to itself crosses
// no link and pays LoopbackLatency. Routing between hosts of another
// platform panics, as rank→host mapping errors are programming bugs.
func (p *Platform) Route(buf []*sim.Link, src, dst *sim.Host) sim.Route {
	if src == dst {
		return sim.Route{Links: buf, Latency: p.LoopbackLatency}
	}
	if !p.owns(src) || !p.owns(dst) {
		panic(fmt.Sprintf("platform %s: route between foreign hosts %s and %s", p.Name, src, dst))
	}
	p.scratch = p.topo.AppendRoute(p.scratch[:0], src.ID, dst.ID)
	// One grow up front: appending link by link would reallocate a fresh
	// comm's buffer two or three times.
	buf = slices.Grow(buf, len(p.scratch))
	lat := 0.0
	for _, id := range p.scratch {
		l := p.links[id]
		buf = append(buf, l)
		lat += l.Latency
	}
	return sim.Route{Links: buf, Latency: lat}
}

// SetSpeed sets the compute rate of every host, in instructions per second.
// Calibration uses it to install measured rates before a replay.
func (p *Platform) SetSpeed(speed float64) {
	for _, h := range p.hosts {
		h.Speed = speed
	}
}

// PiecewiseModel is the SMPI-style network model of Section 3.3: correction
// factors that depend on the message size, accounting for protocol switches
// (eager/rendezvous) and TCP behaviour on the cluster interconnect.
type PiecewiseModel struct {
	segments []SegmentSpec // sorted by MaxBytes; unbounded is math.MaxFloat64
}

// NewPiecewiseModel builds a model from segments, which are sorted by
// MaxBytes; a MaxBytes of 0 or less means unbounded. At least one segment
// is required, factors must be positive and finite, and no MaxBytes may
// be NaN.
func NewPiecewiseModel(segments []SegmentSpec) (*PiecewiseModel, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("platform: piecewise model needs at least one segment")
	}
	segs := append([]SegmentSpec(nil), segments...)
	for i, s := range segs {
		// Negated comparisons catch NaN: a NaN or infinite latency factor
		// stalls every message, a NaN bandwidth factor reads as no cap, and
		// a NaN bound breaks the sort.
		for _, f := range [...]float64{s.LatFactor, s.BwFactor} {
			if !(f > 0) || math.IsInf(f, 1) {
				return nil, fmt.Errorf("platform: segment %d %+v: factors must be positive and finite", i, s)
			}
		}
		if math.IsNaN(s.MaxBytes) {
			return nil, fmt.Errorf("platform: segment %d %+v: MaxBytes is NaN", i, s)
		}
		if s.MaxBytes <= 0 {
			segs[i].MaxBytes = math.MaxFloat64
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].MaxBytes < segs[j].MaxBytes })
	return &PiecewiseModel{segments: segs}, nil
}

// factors returns the factors applying to a message of the given size.
func (m *PiecewiseModel) factors(size float64) SegmentSpec {
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
