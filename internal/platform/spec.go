package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tireplay/internal/sim"
	"tireplay/internal/topo"
)

// Spec is a serializable platform description, the equivalent of the
// platform.xml file passed to smpirun in the paper. It covers the flat,
// hierarchical, and crossbar cluster shapes plus the structured topologies
// of the topology zoo (fat tree, dragonfly, torus), with optional
// piece-wise network factors.
type Spec struct {
	Name     string `json:"name"`
	Topology string `json:"topology"` // "flat", "hierarchical", "crossbar", "fattree", "dragonfly", or "torus"

	// Hosts is the node count for flat/crossbar shapes. For the structured
	// topologies the count is derived from the shape fields; Hosts may still
	// be set and is then cross-checked against the derived count.
	Hosts           int `json:"hosts,omitempty"`
	Cabinets        int `json:"cabinets,omitempty"`
	HostsPerCabinet int `json:"hosts_per_cabinet,omitempty"`

	// Fat tree ("fattree"): a k-ary n-tree with radix^levels hosts. The
	// switch cables take the backbone_* parameters.
	Radix  int `json:"radix,omitempty"`
	Levels int `json:"levels,omitempty"`

	// Dragonfly ("dragonfly"): groups*routers_per_group*hosts_per_router
	// hosts; routing is "minimal" (default), "valiant", or "adaptive".
	// Intra-group cables take local_*, inter-group cables global_*.
	Groups          int    `json:"groups,omitempty"`
	RoutersPerGroup int    `json:"routers_per_group,omitempty"`
	HostsPerRouter  int    `json:"hosts_per_router,omitempty"`
	Routing         string `json:"routing,omitempty"`

	// Torus ("torus"): 2 or 3 dimension radii, product = hosts. The
	// node-to-node ring cables take the backbone_* parameters.
	TorusDims []int `json:"torus_dims,omitempty"`

	Speed float64 `json:"speed"` // instructions per second

	LinkBandwidth     float64 `json:"link_bandwidth"`
	LinkLatency       float64 `json:"link_latency"`
	CabinetBandwidth  float64 `json:"cabinet_bandwidth,omitempty"`
	CabinetLatency    float64 `json:"cabinet_latency,omitempty"`
	BackboneBandwidth float64 `json:"backbone_bandwidth"`
	BackboneLatency   float64 `json:"backbone_latency"`
	LocalBandwidth    float64 `json:"local_bandwidth,omitempty"`
	LocalLatency      float64 `json:"local_latency,omitempty"`
	GlobalBandwidth   float64 `json:"global_bandwidth,omitempty"`
	GlobalLatency     float64 `json:"global_latency,omitempty"`
	LoopbackLatency   float64 `json:"loopback_latency,omitempty"`

	// Factors holds the optional piece-wise-linear segments; MaxBytes<=0 in
	// the last entry means "unbounded".
	Factors []SegmentSpec `json:"factors,omitempty"`
}

// SegmentSpec is one piece of the piece-wise-linear network model: it
// applies to messages up to MaxBytes (inclusive) and scales the base
// latency and bandwidth of the route.
type SegmentSpec struct {
	// MaxBytes is the upper bound (inclusive) of the message-size range this
	// segment covers; 0 or less, like math.MaxFloat64, means unbounded.
	MaxBytes float64 `json:"max_bytes"`
	// LatFactor multiplies the route latency.
	LatFactor float64 `json:"lat_factor"`
	// BwFactor multiplies the bottleneck bandwidth to produce the per-flow
	// rate cap.
	BwFactor float64 `json:"bw_factor"`
}

// Build materializes the spec into a Platform and, when factors are present,
// a PiecewiseModel; the model is nil when the spec has no factors. Build is
// the only code that maps a topology name to a shape.
func (s *Spec) Build() (*Platform, sim.NetworkModel, error) {
	link := linkParams{s.LinkBandwidth, s.LinkLatency, "link"}
	backbone := linkParams{s.BackboneBandwidth, s.BackboneLatency, "backbone"}
	var (
		t      topo.Topology
		params map[topo.Class]linkParams
		err    error
	)
	switch s.Topology {
	case "flat", "":
		t, err = topo.NewStar(s.Hosts)
		params = map[topo.Class]linkParams{topo.ClassHost: link, topo.ClassFabric: backbone}
	case "crossbar":
		t, err = topo.NewCrossbar(s.Hosts)
		params = map[topo.Class]linkParams{topo.ClassHost: link}
	case "hierarchical":
		t, err = topo.NewCabinets(s.Cabinets, s.HostsPerCabinet)
		params = map[topo.Class]linkParams{
			topo.ClassHost:    link,
			topo.ClassCabinet: {s.CabinetBandwidth, s.CabinetLatency, "cabinet"},
			topo.ClassFabric:  backbone,
		}
	case "fattree":
		t, err = topo.NewFatTree(s.Radix, s.Levels)
		params = map[topo.Class]linkParams{topo.ClassHost: link, topo.ClassFabric: backbone}
	case "dragonfly":
		var routing topo.Routing
		if routing, err = topo.ParseRouting(s.Routing); err == nil {
			t, err = topo.NewDragonfly(s.Groups, s.RoutersPerGroup, s.HostsPerRouter, routing)
		}
		params = map[topo.Class]linkParams{
			topo.ClassHost:   link,
			topo.ClassLocal:  {s.LocalBandwidth, s.LocalLatency, "local"},
			topo.ClassGlobal: {s.GlobalBandwidth, s.GlobalLatency, "global"},
		}
	case "torus":
		t, err = topo.NewTorus(s.TorusDims)
		params = map[topo.Class]linkParams{topo.ClassHost: link, topo.ClassFabric: backbone}
	default:
		return nil, nil, fmt.Errorf("platform: unknown topology %q", s.Topology)
	}
	if err != nil {
		return nil, nil, err
	}
	p, err := materialize(s.Name, t, s.Speed, params, s.LoopbackLatency)
	if err != nil {
		return nil, nil, err
	}
	// For the structured topologies the host count is derived from shape
	// fields; an explicit "hosts" must agree so rank-count mismatches
	// surface at build time instead of as routing panics mid-replay.
	switch s.Topology {
	case "fattree", "dragonfly", "torus":
		if s.Hosts != 0 && s.Hosts != p.Size() {
			return nil, nil, fmt.Errorf(`platform: %s: "hosts" = %d but the %s shape yields %d hosts`,
				s.Name, s.Hosts, s.Topology, p.Size())
		}
	}
	if len(s.Factors) == 0 {
		return p, nil, nil
	}
	model, err := NewPiecewiseModel(s.Factors)
	if err != nil {
		return nil, nil, err
	}
	return p, model, nil
}

// ReadSpec decodes a JSON Spec from r.
func ReadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("platform: decoding spec: %w", err)
	}
	return &s, nil
}

// LoadSpec reads a JSON Spec from a file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpec(f)
}
