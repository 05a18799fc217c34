package platform

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tireplay/internal/sim"
)

// writeSpec encodes s as indented JSON to w.
func writeSpec(w io.Writer, s *Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// build builds s, failing the test on error.
func build(t *testing.T, s Spec) *Platform {
	t.Helper()
	p, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildErr fails the test unless building s fails with an error naming
// field.
func buildErr(t *testing.T, s Spec, field string) {
	t.Helper()
	_, _, err := s.Build()
	if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
		t.Errorf("%+v: err = %v, want one naming %q", s, err, field)
	}
}

func flat(t *testing.T, n int) *Platform {
	t.Helper()
	return build(t, Spec{
		Name: "test", Topology: "flat", Hosts: n, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1.25e10, BackboneLatency: 1e-6,
	})
}

func TestFlatClusterShape(t *testing.T) {
	p := flat(t, 4)
	if p.Size() != 4 {
		t.Fatalf("size = %d, want 4", p.Size())
	}
	// 1 backbone + 4 private links.
	if len(p.Links()) != 5 {
		t.Fatalf("links = %d, want 5", len(p.Links()))
	}
	r := p.Route(nil, p.Host(0), p.Host(3))
	if len(r.Links) != 3 {
		t.Fatalf("route links = %d, want 3 (up, backbone, down)", len(r.Links))
	}
	wantLat := 1e-5 + 1e-6 + 1e-5
	if math.Abs(r.Latency-wantLat) > 1e-15 {
		t.Fatalf("route latency = %v, want %v", r.Latency, wantLat)
	}
}

func TestFlatClusterLoopback(t *testing.T) {
	p := flat(t, 2)
	p.LoopbackLatency = 1e-7
	r := p.Route(nil, p.Host(1), p.Host(1))
	if len(r.Links) != 0 || r.Latency != 1e-7 {
		t.Fatalf("loopback route = %+v", r)
	}
}

func TestFlatClusterRejectsBadConfig(t *testing.T) {
	buildErr(t, Spec{Topology: "flat", Hosts: 0, LinkBandwidth: 1, BackboneBandwidth: 1}, "hosts")
	buildErr(t, Spec{Topology: "flat", Hosts: 2, LinkBandwidth: 0, BackboneBandwidth: 1}, "link_bandwidth")
	buildErr(t, Spec{Topology: "flat", Hosts: 2, LinkBandwidth: 1, BackboneBandwidth: 0}, "backbone_bandwidth")
	// JSON cannot carry NaN, but a Spec built in Go can.
	buildErr(t, Spec{Topology: "crossbar", Hosts: 2, LinkBandwidth: math.NaN()}, "link_bandwidth")
}

// TestRouteForeignHostPanics pins the one foreign-host check: a host of
// another platform, even with the same index, or one made by hand is
// rejected, while a host talking to itself needs no check.
func TestRouteForeignHostPanics(t *testing.T) {
	p, other := flat(t, 2), flat(t, 2)
	for _, h := range []*sim.Host{other.Host(1), {Name: "stray"}, {Name: "far", ID: 7}} {
		func() {
			defer func() {
				want := "platform test: route between foreign hosts test-0 and " + h.Name
				if r := recover(); r != want {
					t.Errorf("routing to %s: panic %v, want %q", h.Name, r, want)
				}
			}()
			p.Route(nil, p.Host(0), h)
		}()
	}
	if r := p.Route(nil, other.Host(0), other.Host(0)); len(r.Links) != 0 {
		t.Fatalf("loopback route = %+v", r)
	}
}

func TestSetSpeed(t *testing.T) {
	p := flat(t, 3)
	p.SetSpeed(42)
	for _, h := range p.Hosts() {
		if h.Speed != 42 {
			t.Fatalf("host %s speed = %v", h.Name, h.Speed)
		}
	}
}

func hier(t *testing.T) *Platform {
	t.Helper()
	return build(t, Spec{
		Name: "g", Topology: "hierarchical", Cabinets: 4, HostsPerCabinet: 36, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-5,
		CabinetBandwidth: 1.25e10, CabinetLatency: 2e-6,
		BackboneBandwidth: 2.5e10, BackboneLatency: 3e-6,
	})
}

func TestHierarchicalClusterShape(t *testing.T) {
	p := hier(t)
	if p.Size() != 144 {
		t.Fatalf("size = %d, want 144", p.Size())
	}
	// Intra-cabinet: hosts 0 and 1 are both in cabinet 0.
	r := p.Route(nil, p.Host(0), p.Host(1))
	if len(r.Links) != 3 {
		t.Fatalf("intra-cabinet route links = %d, want 3", len(r.Links))
	}
	// Inter-cabinet: hosts 0 (cab 0) and 40 (cab 1).
	r = p.Route(nil, p.Host(0), p.Host(40))
	if len(r.Links) != 5 {
		t.Fatalf("inter-cabinet route links = %d, want 5", len(r.Links))
	}
	wantLat := 1e-5 + 2e-6 + 3e-6 + 2e-6 + 1e-5
	if math.Abs(r.Latency-wantLat) > 1e-15 {
		t.Fatalf("inter-cabinet latency = %v, want %v", r.Latency, wantLat)
	}
}

func TestHierarchicalRejectsBadConfig(t *testing.T) {
	ok := Spec{Topology: "hierarchical", Cabinets: 1, HostsPerCabinet: 1,
		LinkBandwidth: 1, CabinetBandwidth: 1, BackboneBandwidth: 1}
	for _, c := range []struct {
		field string
		set   func(*Spec)
	}{
		{"cabinets", func(s *Spec) { s.Cabinets = 0 }},
		{"hosts_per_cabinet", func(s *Spec) { s.HostsPerCabinet = -1 }},
		{"link_bandwidth", func(s *Spec) { s.LinkBandwidth = 0 }},
		{"cabinet_bandwidth", func(s *Spec) { s.CabinetBandwidth = 0 }},
		{"backbone_bandwidth", func(s *Spec) { s.BackboneBandwidth = -1 }},
	} {
		s := ok
		c.set(&s)
		buildErr(t, s, c.field)
	}
}

func TestRouteSymmetryProperty(t *testing.T) {
	p := hier(t)
	f := func(a, b uint8) bool {
		i, j := int(a)%p.Size(), int(b)%p.Size()
		ri := p.Route(nil, p.Host(i), p.Host(j))
		rj := p.Route(nil, p.Host(j), p.Host(i))
		// Latency symmetric and same link count.
		return ri.Latency == rj.Latency && len(ri.Links) == len(rj.Links)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPiecewiseModelSelection(t *testing.T) {
	m, err := NewPiecewiseModel([]SegmentSpec{
		{MaxBytes: 1024, LatFactor: 2, BwFactor: 0.5},
		{MaxBytes: 65536, LatFactor: 1.5, BwFactor: 0.9},
		{MaxBytes: math.MaxFloat64, LatFactor: 1, BwFactor: 0.97},
	})
	if err != nil {
		t.Fatal(err)
	}
	route := sim.Route{
		Links:   []*sim.Link{{Bandwidth: 100}, {Bandwidth: 50}},
		Latency: 1e-3,
	}
	lat, cap := m.Effective(route, 100)
	if lat != 2e-3 || cap != 25 {
		t.Fatalf("small msg: lat=%v cap=%v, want 2e-3, 25", lat, cap)
	}
	lat, cap = m.Effective(route, 65536)
	if lat != 1.5e-3 || cap != 45 {
		t.Fatalf("medium msg: lat=%v cap=%v, want 1.5e-3, 45", lat, cap)
	}
	lat, cap = m.Effective(route, 1e9)
	if lat != 1e-3 || cap != 48.5 {
		t.Fatalf("large msg: lat=%v cap=%v, want 1e-3, 48.5", lat, cap)
	}
}

func TestPiecewiseModelSortsSegments(t *testing.T) {
	m, err := NewPiecewiseModel([]SegmentSpec{
		{MaxBytes: math.MaxFloat64, LatFactor: 1, BwFactor: 1},
		{MaxBytes: 10, LatFactor: 3, BwFactor: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.factors(5)
	if s.LatFactor != 3 {
		t.Fatalf("factors(5) = %+v, want the small segment", s)
	}
}

// TestPiecewiseModelUnboundedSegment: a MaxBytes of 0 or less means
// unbounded, so such a segment sorts last and covers every larger message.
func TestPiecewiseModelUnboundedSegment(t *testing.T) {
	m, err := NewPiecewiseModel([]SegmentSpec{
		{MaxBytes: 0, LatFactor: 1, BwFactor: 0.97},
		{MaxBytes: 1024, LatFactor: 2, BwFactor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.factors(512); s.LatFactor != 2 {
		t.Fatalf("factors(512) = %+v, want the bounded segment", s)
	}
	if s := m.factors(1e12); s.LatFactor != 1 || s.MaxBytes != math.MaxFloat64 {
		t.Fatalf("factors(1e12) = %+v, want the unbounded segment", s)
	}
}

func TestPiecewiseModelValidation(t *testing.T) {
	if _, err := NewPiecewiseModel(nil); err == nil {
		t.Error("expected error for empty segments")
	}
	if _, err := NewPiecewiseModel([]SegmentSpec{{MaxBytes: 1, LatFactor: 0, BwFactor: 1}}); err == nil {
		t.Error("expected error for zero factor")
	}
	// A NaN or infinite factor, or a NaN size bound, which only a Spec
	// built in Go can carry, fails the build naming its segment. A NaN
	// bandwidth factor read as no cap, and a NaN or infinite latency
	// factor turned into a spurious deadlock.
	nan := math.NaN()
	for _, bad := range []SegmentSpec{
		{LatFactor: 1, BwFactor: nan},
		{LatFactor: nan, BwFactor: 1},
		{LatFactor: math.Inf(1), BwFactor: 1},
		{MaxBytes: nan, LatFactor: 1, BwFactor: 1},
	} {
		s := Spec{Topology: "crossbar", Hosts: 2, Speed: 1e9, LinkBandwidth: 1e9, LinkLatency: 1e-6,
			Factors: []SegmentSpec{{MaxBytes: 65536, LatFactor: 1, BwFactor: 1}, bad}}
		if _, _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "segment 1") {
			t.Errorf("%+v: err = %v, want one naming segment 1", bad, err)
		}
	}
}

// Property: factor lookup is piecewise-constant and never panics across a
// wide size range, and latency scaling is monotone in route latency.
func TestPiecewiseFactorsTotalProperty(t *testing.T) {
	m, err := NewPiecewiseModel([]SegmentSpec{
		{MaxBytes: 64, LatFactor: 3, BwFactor: 0.3},
		{MaxBytes: 65536, LatFactor: 1.8, BwFactor: 0.8},
		{MaxBytes: math.MaxFloat64, LatFactor: 1, BwFactor: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(sz uint32) bool {
		s := m.factors(float64(sz))
		return s.LatFactor >= 1 && s.LatFactor <= 3 && s.BwFactor > 0 && s.BwFactor <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := &Spec{
		Name: "bb", Topology: "flat", Hosts: 8, Speed: 2e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1.25e10, BackboneLatency: 1e-6,
		Factors: []SegmentSpec{{MaxBytes: 65536, LatFactor: 1.5, BwFactor: 0.9}, {MaxBytes: 0, LatFactor: 1, BwFactor: 0.97}},
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "bb" || got.Hosts != 8 || len(got.Factors) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	p, model, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 8 || model == nil {
		t.Fatalf("build: size=%d model=%v", p.Size(), model)
	}
}

func TestSpecBuildHierarchical(t *testing.T) {
	spec := &Spec{
		Name: "g", Topology: "hierarchical", Cabinets: 2, HostsPerCabinet: 3,
		Speed: 1e9, LinkBandwidth: 1e9, LinkLatency: 1e-5,
		CabinetBandwidth: 1e10, CabinetLatency: 1e-6,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 6 {
		t.Fatalf("size = %d, want 6", p.Size())
	}
}

func TestSpecUnknownTopology(t *testing.T) {
	spec := &Spec{Topology: "hypercube"}
	if _, _, err := spec.Build(); err == nil {
		t.Fatal("expected error for unknown topology")
	}
}

func TestReadSpecRejectsUnknownFields(t *testing.T) {
	_, err := ReadSpec(strings.NewReader(`{"name":"x","bogus":1}`))
	if err == nil {
		t.Fatal("expected error for unknown field")
	}
}

// once returns a Feed that emits ops, then runs after once they have all
// completed (the machine feeds again at that simulated time) and finishes.
func once(ops func(*sim.Prog), after ...func()) sim.Feed {
	fed := false
	return func(p *sim.Prog) (bool, error) {
		if fed {
			for _, f := range after {
				f()
			}
			return false, nil
		}
		fed = true
		ops(p)
		return true, nil
	}
}

// End-to-end: platform used as router in the engine gives expected times.
func TestPlatformInEngine(t *testing.T) {
	p := flat(t, 2)
	e := sim.NewEngine(p)
	mb := e.NewPairSpace("t", nil).Box(0, 1)
	e.SpawnProg("s", p.Host(0), once(func(pr *sim.Prog) { pr.Put(mb, 1.25e6, 0); pr.WaitReg(0) }))
	var end float64
	e.SpawnProg("r", p.Host(1), once(func(pr *sim.Prog) { pr.Get(mb, 0); pr.WaitReg(0) }, func() { end = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// latency 2.1e-5 + 1.25e6/1.25e9 = 2.1e-5 + 1e-3
	want := 2.1e-5 + 1e-3
	if math.Abs(end-want) > 1e-12 {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestCrossbarClusterShape(t *testing.T) {
	p := build(t, Spec{
		Name: "xbar", Topology: "crossbar", Hosts: 4, Speed: 1e9,
		LinkBandwidth: 1.25e9, LinkLatency: 1e-5,
	})
	if p.Size() != 4 {
		t.Fatalf("size = %d, want 4", p.Size())
	}
	// One uplink and one downlink per host, no shared fabric link.
	if len(p.Links()) != 8 {
		t.Fatalf("links = %d, want 8", len(p.Links()))
	}
	r := p.Route(nil, p.Host(0), p.Host(3))
	if len(r.Links) != 2 {
		t.Fatalf("route links = %d, want 2 (up, down)", len(r.Links))
	}
	if math.Abs(r.Latency-2e-5) > 1e-15 {
		t.Fatalf("route latency = %v, want 2e-5", r.Latency)
	}
	// Full bisection: routes of disjoint host pairs share no link.
	r2 := p.Route(nil, p.Host(1), p.Host(2))
	for _, a := range r.Links {
		for _, b := range r2.Links {
			if a == b {
				t.Fatalf("disjoint pairs share link %s", a.Name)
			}
		}
	}
	// Same sender to two receivers shares exactly the uplink.
	r3 := p.Route(nil, p.Host(0), p.Host(2))
	if r.Links[0] != r3.Links[0] {
		t.Fatal("same sender should reuse its uplink")
	}
	if r.Links[1] == r3.Links[1] {
		t.Fatal("different receivers must not share a downlink")
	}
}

func TestCrossbarClusterRejectsBadConfig(t *testing.T) {
	buildErr(t, Spec{Topology: "crossbar", Hosts: 0, LinkBandwidth: 1}, "hosts")
	buildErr(t, Spec{Topology: "crossbar", Hosts: 2}, "link_bandwidth")
}

func TestSpecBuildCrossbar(t *testing.T) {
	s := &Spec{
		Name: "x", Topology: "crossbar", Hosts: 3, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-6,
	}
	p, model, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if model != nil {
		t.Fatal("no factors requested, model should be nil")
	}
	if p.Size() != 3 || len(p.Links()) != 6 {
		t.Fatalf("crossbar spec built size=%d links=%d, want 3/6", p.Size(), len(p.Links()))
	}
}

// TestSpecRejectsBadLatencies checks that every topology rejects each of
// its latency fields when negative or not finite, naming the field, and
// still builds with the field at 0. A negative latency used to be accepted
// and replayed exactly as 0.
func TestSpecRejectsBadLatencies(t *testing.T) {
	base := Spec{
		Name: "lat", Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-6,
		CabinetBandwidth: 1e9, CabinetLatency: 1e-6,
		BackboneBandwidth: 1e9, BackboneLatency: 1e-6,
		LocalBandwidth: 1e9, LocalLatency: 1e-6,
		GlobalBandwidth: 1e9, GlobalLatency: 1e-6,
		LoopbackLatency: 1e-7,
	}
	field := map[string]func(*Spec) *float64{
		"link_latency":     func(s *Spec) *float64 { return &s.LinkLatency },
		"cabinet_latency":  func(s *Spec) *float64 { return &s.CabinetLatency },
		"backbone_latency": func(s *Spec) *float64 { return &s.BackboneLatency },
		"local_latency":    func(s *Spec) *float64 { return &s.LocalLatency },
		"global_latency":   func(s *Spec) *float64 { return &s.GlobalLatency },
		"loopback_latency": func(s *Spec) *float64 { return &s.LoopbackLatency },
	}
	cases := []struct {
		shape  func(*Spec)
		fields []string
	}{
		{func(s *Spec) { s.Topology, s.Hosts = "flat", 4 },
			[]string{"link_latency", "backbone_latency", "loopback_latency"}},
		{func(s *Spec) { s.Topology, s.Hosts = "crossbar", 4 },
			[]string{"link_latency", "loopback_latency"}},
		{func(s *Spec) { s.Topology, s.Cabinets, s.HostsPerCabinet = "hierarchical", 2, 2 },
			[]string{"link_latency", "cabinet_latency", "backbone_latency", "loopback_latency"}},
		{func(s *Spec) { s.Topology, s.Radix, s.Levels = "fattree", 2, 2 },
			[]string{"link_latency", "backbone_latency", "loopback_latency"}},
		{func(s *Spec) { s.Topology, s.Groups, s.RoutersPerGroup, s.HostsPerRouter = "dragonfly", 2, 2, 2 },
			[]string{"link_latency", "local_latency", "global_latency", "loopback_latency"}},
		{func(s *Spec) { s.Topology, s.TorusDims = "torus", []int{2, 2} },
			[]string{"link_latency", "backbone_latency", "loopback_latency"}},
	}
	for _, c := range cases {
		for _, f := range c.fields {
			for _, v := range []float64{-1e-6, math.Inf(-1), math.Inf(1), math.NaN()} {
				s := base
				c.shape(&s)
				*field[f](&s) = v
				_, _, err := s.Build()
				if err == nil || !strings.Contains(err.Error(), `"`+f+`"`) {
					t.Errorf("%s with %s = %g: err = %v, want one naming %q", s.Topology, f, v, err, f)
				}
			}
			s := base
			c.shape(&s)
			*field[f](&s) = 0
			if _, _, err := s.Build(); err != nil {
				t.Errorf("%s with %s = 0: %v", s.Topology, f, err)
			}
		}
	}
}
