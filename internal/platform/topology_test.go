package platform

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tireplay/internal/sim"
)

func fattree(t *testing.T, radix, levels int) *Platform {
	t.Helper()
	return build(t, Spec{
		Name: "ft", Topology: "fattree", Radix: radix, Levels: levels, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
		BackboneBandwidth: 5e9, BackboneLatency: 2e-6,
	})
}

func TestFatTreePlatformShape(t *testing.T) {
	p := fattree(t, 4, 2)
	if p.Size() != 16 {
		t.Fatalf("size = %d, want 16", p.Size())
	}
	// 2*hosts NIC links + 2*hosts*(levels-1) switch cables.
	if len(p.Links()) != 2*16*2 {
		t.Fatalf("links = %d, want %d", len(p.Links()), 2*16*2)
	}
	// Same tier-1 switch: NIC up + NIC down.
	r := p.Route(nil, p.Host(0), p.Host(3))
	if len(r.Links) != 2 {
		t.Fatalf("intra-switch route links = %d, want 2", len(r.Links))
	}
	if math.Abs(r.Latency-2e-6) > 1e-18 {
		t.Fatalf("intra-switch latency = %v, want 2e-6", r.Latency)
	}
	// Different tier-1 switch: NIC, up cable, down cable, NIC.
	r = p.Route(nil, p.Host(0), p.Host(5))
	if len(r.Links) != 4 {
		t.Fatalf("cross-switch route links = %d, want 4", len(r.Links))
	}
	if math.Abs(r.Latency-(2e-6+4e-6)) > 1e-18 {
		t.Fatalf("cross-switch latency = %v, want 6e-6", r.Latency)
	}
}

func TestDragonflyPlatformShape(t *testing.T) {
	p := build(t, Spec{
		Name: "df", Topology: "dragonfly", Groups: 3, RoutersPerGroup: 2, HostsPerRouter: 2,
		Routing: "minimal", Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
		LocalBandwidth: 5e9, LocalLatency: 2e-6,
		GlobalBandwidth: 1e10, GlobalLatency: 1e-5,
	})
	if p.Size() != 12 {
		t.Fatalf("size = %d, want 12", p.Size())
	}
	// 2*12 NIC + 3*2*1 local + 3*2 global directional links.
	if len(p.Links()) != 24+6+6 {
		t.Fatalf("links = %d, want 36", len(p.Links()))
	}
	// Same router: NICs only.
	if r := p.Route(nil, p.Host(0), p.Host(1)); len(r.Links) != 2 {
		t.Fatalf("same-router route links = %d, want 2", len(r.Links))
	}
	// Same group, different router: one local cable between NICs.
	r := p.Route(nil, p.Host(0), p.Host(2))
	if len(r.Links) != 3 {
		t.Fatalf("intra-group route links = %d, want 3", len(r.Links))
	}
	if math.Abs(r.Latency-(2e-6+2e-6)) > 1e-18 {
		t.Fatalf("intra-group latency = %v, want 4e-6", r.Latency)
	}
	// Inter-group minimal: at most 5 links including one global cable.
	r = p.Route(nil, p.Host(0), p.Host(11))
	if len(r.Links) > 5 {
		t.Fatalf("inter-group route links = %d, want <= 5", len(r.Links))
	}
	globals := 0
	for _, l := range r.Links {
		if strings.Contains(l.Name, "-g") && !strings.Contains(l.Name, "-r") && !strings.Contains(l.Name, "h") {
			globals++
		}
	}
	if globals != 1 {
		t.Fatalf("inter-group minimal route crosses %d global cables, want 1", globals)
	}
}

func TestTorusPlatformShape(t *testing.T) {
	p := build(t, Spec{
		Name: "tor", Topology: "torus", TorusDims: []int{4, 4}, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-6,
		BackboneBandwidth: 5e9, BackboneLatency: 2e-6,
	})
	if p.Size() != 16 {
		t.Fatalf("size = %d, want 16", p.Size())
	}
	// 2*16 NIC + 16*2*2 neighbor links.
	if len(p.Links()) != 32+64 {
		t.Fatalf("links = %d, want 96", len(p.Links()))
	}
	// Nodes 0=(0,0) and 5=(1,1): two network hops.
	r := p.Route(nil, p.Host(0), p.Host(5))
	if len(r.Links) != 4 {
		t.Fatalf("diagonal route links = %d, want 4", len(r.Links))
	}
	// Wraparound: (0,0) -> (3,0) is one hop the negative way.
	r = p.Route(nil, p.Host(0), p.Host(3))
	if len(r.Links) != 3 {
		t.Fatalf("wraparound route links = %d, want 3", len(r.Links))
	}
}

// TestTopologyRouteSymmetry extends the flat/hier symmetry property to the
// zoo: hop count and latency are symmetric under src/dst exchange.
func TestTopologyRouteSymmetry(t *testing.T) {
	platforms := []*Platform{fattree(t, 2, 3)}
	for _, routing := range []string{"minimal", "valiant", "adaptive"} {
		platforms = append(platforms, build(t, Spec{
			Name: "df-" + routing, Topology: "dragonfly", Groups: 4, RoutersPerGroup: 2, HostsPerRouter: 2,
			Routing: routing, Speed: 1e9,
			LinkBandwidth: 1e9, LinkLatency: 1e-6,
			LocalBandwidth: 1e9, LocalLatency: 2e-6,
			GlobalBandwidth: 1e9, GlobalLatency: 1e-5,
		}))
	}
	platforms = append(platforms, build(t, Spec{
		Name: "tor", Topology: "torus", TorusDims: []int{3, 4}, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-6,
		BackboneBandwidth: 1e9, BackboneLatency: 2e-6,
	}))
	for _, p := range platforms {
		f := func(a, b uint8) bool {
			i, j := int(a)%p.Size(), int(b)%p.Size()
			ri := p.Route(nil, p.Host(i), p.Host(j))
			rj := p.Route(nil, p.Host(j), p.Host(i))
			// The reverse route crosses mirrored links in the opposite
			// order, so the latency sums may differ by rounding.
			return math.Abs(ri.Latency-rj.Latency) <= 1e-12*ri.Latency &&
				len(ri.Links) == len(rj.Links)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

// TestTopologyRouteIntoReuse pins the pooled-route contract the engine
// relies on: Route appends into the caller's buffer without holding on to
// it, and consecutive calls reuse the internal scratch without corrupting
// earlier results.
func TestTopologyRouteIntoReuse(t *testing.T) {
	p := fattree(t, 2, 2)
	buf := make([]*sim.Link, 0, 16)
	r1 := p.Route(buf, p.Host(0), p.Host(3))
	names1 := make([]string, len(r1.Links))
	for i, l := range r1.Links {
		names1[i] = l.Name
	}
	r2 := p.Route(r1.Links[len(r1.Links):], p.Host(1), p.Host(2))
	for i, l := range r1.Links {
		if l.Name != names1[i] {
			t.Fatalf("second Route corrupted first route at %d: %s != %s", i, l.Name, names1[i])
		}
	}
	if len(r2.Links) == 0 {
		t.Fatal("second route empty")
	}
}

func TestSpecBuildFatTree(t *testing.T) {
	s := &Spec{
		Name: "ft", Topology: "fattree", Radix: 2, Levels: 3, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-6,
		BackboneBandwidth: 1e9, BackboneLatency: 1e-6,
	}
	p, model, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if model != nil {
		t.Fatal("no factors requested, model should be nil")
	}
	if p.Size() != 8 {
		t.Fatalf("size = %d, want 8", p.Size())
	}
}

func TestSpecBuildDragonflyJSON(t *testing.T) {
	js := `{
		"name": "df", "topology": "dragonfly",
		"groups": 2, "routers_per_group": 2, "hosts_per_router": 2,
		"routing": "adaptive", "speed": 1e9,
		"link_bandwidth": 1.25e9, "link_latency": 1e-6,
		"local_bandwidth": 5e9, "local_latency": 2e-6,
		"global_bandwidth": 1e10, "global_latency": 1e-5
	}`
	s, err := ReadSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 8 {
		t.Fatalf("size = %d, want 8", p.Size())
	}
	// Round trip through WriteSpec preserves the shape fields.
	var buf bytes.Buffer
	if err := WriteSpec(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Groups != 2 || got.RoutersPerGroup != 2 || got.HostsPerRouter != 2 || got.Routing != "adaptive" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSpecBuildTorusJSON(t *testing.T) {
	js := `{
		"name": "tor", "topology": "torus", "torus_dims": [4, 2, 2],
		"speed": 1e9,
		"link_bandwidth": 1.25e9, "link_latency": 1e-6,
		"backbone_bandwidth": 5e9, "backbone_latency": 2e-6
	}`
	s, err := ReadSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 {
		t.Fatalf("size = %d, want 16", p.Size())
	}
}

// TestSpecHostsCrossCheck: an explicit "hosts" that disagrees with the
// derived shape is a structured error naming the field, not a panic later.
func TestSpecHostsCrossCheck(t *testing.T) {
	s := &Spec{
		Name: "ft", Topology: "fattree", Radix: 2, Levels: 2, Hosts: 5,
		Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9,
	}
	_, _, err := s.Build()
	if err == nil {
		t.Fatal("expected hosts mismatch error")
	}
	if !strings.Contains(err.Error(), `"hosts"`) {
		t.Fatalf("error %q does not name the hosts field", err)
	}
	s.Hosts = 4
	if _, _, err := s.Build(); err != nil {
		t.Fatalf("matching hosts rejected: %v", err)
	}
	s.Hosts = 0
	if _, _, err := s.Build(); err != nil {
		t.Fatalf("omitted hosts rejected: %v", err)
	}
}

// TestSpecTopologyValidationFuzz throws randomized invalid shapes at every
// topology and requires a structured error naming an offending field —
// never a panic, never silent acceptance.
func TestSpecTopologyValidationFuzz(t *testing.T) {
	build := func(s *Spec) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Build panicked on %+v: %v", s, r)
			}
		}()
		_, _, err = s.Build()
		return err
	}
	// named reports whether err names one of fields.
	named := func(err error, fields ...string) bool {
		for _, f := range fields {
			if err != nil && strings.Contains(err.Error(), `"`+f+`"`) {
				return true
			}
		}
		return false
	}
	f := func(rawRadix, rawLevels, rawGroups, rawRouters, rawHostsPer int8, rawD0, rawD1 uint8, rawHosts, rawCabinets, rawPerCabinet int8) bool {
		// Keep shapes small (a few negatives through one-digit positives) so
		// the valid draws build quickly while invalid ones still appear.
		radix, levels := int(rawRadix%8), int(rawLevels%6)
		groups, routers, hostsPer := int(rawGroups%8), int(rawRouters%8), int(rawHostsPer%8)
		d0, d1 := int(rawD0%8), int(rawD1%8)
		ft := &Spec{
			Name: "f", Topology: "fattree", Radix: radix, Levels: levels,
			Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9,
		}
		if err := build(ft); radix < 2 || levels < 1 {
			if err == nil {
				return false
			}
			if !strings.Contains(err.Error(), `"radix"`) && !strings.Contains(err.Error(), `"levels"`) {
				return false
			}
		}
		df := &Spec{
			Name: "d", Topology: "dragonfly",
			Groups: groups, RoutersPerGroup: routers, HostsPerRouter: hostsPer,
			Speed: 1e9, LinkBandwidth: 1e9, LocalBandwidth: 1e9, GlobalBandwidth: 1e9,
		}
		if err := build(df); groups < 1 || routers < 1 || hostsPer < 1 {
			if err == nil {
				return false
			}
			bad := strings.Contains(err.Error(), `"groups"`) ||
				strings.Contains(err.Error(), `"routers_per_group"`) ||
				strings.Contains(err.Error(), `"hosts_per_router"`)
			if !bad {
				return false
			}
		}
		tor := &Spec{
			Name: "t", Topology: "torus", TorusDims: []int{d0, d1},
			Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9,
		}
		if err := build(tor); d0 < 2 || d1 < 2 {
			if err == nil {
				return false
			}
			if !strings.Contains(err.Error(), `"torus_dims"`) {
				return false
			}
		}
		// The paper's clusters and the crossbar: valid draws build, invalid
		// ones name the offending count.
		hosts, cabinets, perCabinet := int(rawHosts%8), int(rawCabinets%8), int(rawPerCabinet%8)
		for _, shape := range []string{"flat", "crossbar"} {
			s := &Spec{Name: "c", Topology: shape, Hosts: hosts, Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9}
			if err := build(s); (hosts >= 1) != (err == nil) || (err != nil && !named(err, "hosts")) {
				return false
			}
		}
		hier := &Spec{
			Name: "h", Topology: "hierarchical", Cabinets: cabinets, HostsPerCabinet: perCabinet,
			Speed: 1e9, LinkBandwidth: 1e9, CabinetBandwidth: 1e9, BackboneBandwidth: 1e9,
		}
		err := build(hier)
		if (cabinets >= 1 && perCabinet >= 1) != (err == nil) || (err != nil && !named(err, "cabinets", "hosts_per_cabinet")) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Degenerate shapes the int8 fuzz above can't produce.
	for _, s := range []*Spec{
		{Name: "t", Topology: "torus", Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9},
		{Name: "t", Topology: "torus", TorusDims: []int{4}, Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9},
		{Name: "t", Topology: "torus", TorusDims: []int{2, 2, 2, 2}, Speed: 1e9, LinkBandwidth: 1e9, BackboneBandwidth: 1e9},
		{Name: "d", Topology: "dragonfly", Groups: 2, RoutersPerGroup: 2, HostsPerRouter: 2, Routing: "bogus",
			Speed: 1e9, LinkBandwidth: 1e9, LocalBandwidth: 1e9, GlobalBandwidth: 1e9},
		{Name: "f", Topology: "fattree", Radix: 2, Levels: 2, Speed: 1e9, BackboneBandwidth: 1e9},
		{Name: "f", Topology: "fattree", Radix: 2, Levels: 2, Speed: 1e9, LinkBandwidth: 1e9},
	} {
		if err := build(s); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	// Counts past the host limit, and products that would overflow, fail
	// naming a field before anything is allocated.
	for _, s := range []*Spec{
		{Name: "c", Topology: "flat", Hosts: 1e9},
		{Name: "c", Topology: "flat", Hosts: 1<<22 + 1},
		{Name: "c", Topology: "crossbar", Hosts: math.MaxInt},
		{Name: "h", Topology: "hierarchical", Cabinets: 1 << 12, HostsPerCabinet: 1 << 12},
		{Name: "h", Topology: "hierarchical", Cabinets: 1 << 32, HostsPerCabinet: 1 << 32},
		{Name: "h", Topology: "hierarchical", Cabinets: math.MaxInt, HostsPerCabinet: 2},
		{Name: "h", Topology: "hierarchical", Cabinets: 3, HostsPerCabinet: math.MaxInt/2 + 1},
	} {
		s.Speed, s.LinkBandwidth, s.CabinetBandwidth, s.BackboneBandwidth = 1e9, 1e9, 1e9, 1e9
		if err := build(s); !named(err, "hosts", "cabinets", "hosts_per_cabinet") {
			t.Errorf("%s with %d hosts, %d*%d in cabinets: err = %v, want one naming a field",
				s.Topology, s.Hosts, s.Cabinets, s.HostsPerCabinet, err)
		}
	}
}

// End-to-end: a fat-tree platform drives the engine and two transfers that
// share no cable finish as fast as one alone (full bisection at radix 2).
func TestTopologyPlatformInEngine(t *testing.T) {
	p := fattree(t, 2, 2)
	e := sim.NewEngine(p)
	space := e.NewPairSpace("t", nil)
	a, b := space.Box(0, 1), space.Box(2, 3)
	var end1, end2 float64
	e.SpawnProg("s1", p.Host(0), once(func(pr *sim.Prog) { pr.Put(a, 1.25e6, 0); pr.WaitReg(0) }))
	e.SpawnProg("r1", p.Host(1), once(func(pr *sim.Prog) { pr.Get(a, 0); pr.WaitReg(0) }, func() { end1 = e.Now() }))
	e.SpawnProg("s2", p.Host(2), once(func(pr *sim.Prog) { pr.Put(b, 1.25e6, 0); pr.WaitReg(0) }))
	e.SpawnProg("r2", p.Host(3), once(func(pr *sim.Prog) { pr.Get(b, 0); pr.WaitReg(0) }, func() { end2 = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each transfer crosses its own pair of NIC links only (same tier-1
	// switch): latency 2e-6, bandwidth 1.25e9 -> 1e-3 transfer time.
	want := 2e-6 + 1e-3
	if math.Abs(end1-want) > 1e-12 || math.Abs(end2-want) > 1e-12 {
		t.Fatalf("ends = %v, %v; want both %v", end1, end2, want)
	}
}
