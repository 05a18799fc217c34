package platform

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// The route golden table pins, for one small instance of every shape Spec
// builds, the host names, the link table in order, and the route of every
// ordered host pair (loopback included): link names in order and the
// latency sum bit for bit. Regenerate it only for an intended change of
// routing:
//
//	go test ./internal/platform -run RoutesGolden -update

var update = flag.Bool("update", false, "rewrite testdata/routes_golden.json")

const routesGoldenPath = "testdata/routes_golden.json"

type goldenLink struct {
	Name      string  `json:"name"`
	Bandwidth float64 `json:"bandwidth"`
	Latency   float64 `json:"latency"`
}

type goldenRoute struct {
	Src   int      `json:"src"`
	Dst   int      `json:"dst"`
	Links []string `json:"links"`
	// Latency holds the IEEE-754 bits of Route.Latency in hex.
	Latency string `json:"latency"`
}

type goldenShape struct {
	Name   string        `json:"name"`
	Hosts  []string      `json:"hosts"`
	Links  []goldenLink  `json:"links"`
	Routes []goldenRoute `json:"routes"`
}

// goldenSpecs are the shapes the table covers. The latencies are chosen so
// that summing a dragonfly route's latencies in another order changes the
// sum's low bits; the other shapes' routes cross the same latencies in
// both directions.
func goldenSpecs() []*Spec {
	base := Spec{
		Speed:         1e9,
		LinkBandwidth: 1.25e8, LinkLatency: 1.3e-5,
		CabinetBandwidth: 1.25e9, CabinetLatency: 2.7e-6,
		BackboneBandwidth: 2.5e9, BackboneLatency: 1.3e-6,
		LocalBandwidth: 5e9, LocalLatency: 2.9e-7,
		GlobalBandwidth: 1e10, GlobalLatency: 5.3e-6,
		LoopbackLatency: 1.7e-7,
	}
	shape := func(name string, f func(*Spec)) *Spec {
		s := base
		s.Name = name
		f(&s)
		return &s
	}
	specs := []*Spec{
		shape("flat", func(s *Spec) { s.Topology, s.Hosts = "flat", 4 }),
		shape("xbar", func(s *Spec) { s.Topology, s.Hosts = "crossbar", 4 }),
		shape("hier", func(s *Spec) { s.Topology, s.Cabinets, s.HostsPerCabinet = "hierarchical", 2, 3 }),
		shape("ft", func(s *Spec) { s.Topology, s.Radix, s.Levels = "fattree", 2, 3 }),
	}
	for _, routing := range []string{"minimal", "valiant", "adaptive"} {
		specs = append(specs, shape("df-"+routing, func(s *Spec) {
			s.Topology, s.Groups, s.RoutersPerGroup, s.HostsPerRouter, s.Routing = "dragonfly", 3, 2, 2, routing
		}))
	}
	return append(specs, shape("torus", func(s *Spec) { s.Topology, s.TorusDims = "torus", []int{3, 4} }))
}

// recordShape builds s and renders its hosts, links, and every route.
func recordShape(t *testing.T, s *Spec) goldenShape {
	t.Helper()
	p, _, err := s.Build()
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	g := goldenShape{Name: s.Name}
	for _, h := range p.Hosts() {
		g.Hosts = append(g.Hosts, h.Name)
	}
	for _, l := range p.Links() {
		g.Links = append(g.Links, goldenLink{l.Name, l.Bandwidth, l.Latency})
	}
	for src, hs := range p.Hosts() {
		for dst, hd := range p.Hosts() {
			r := p.Route(nil, hs, hd)
			names := []string{}
			for _, l := range r.Links {
				names = append(names, l.Name)
			}
			g.Routes = append(g.Routes, goldenRoute{src, dst, names, fmt.Sprintf("%016x", math.Float64bits(r.Latency))})
		}
	}
	return g
}

func TestRoutesGolden(t *testing.T) {
	var got []goldenShape
	for _, s := range goldenSpecs() {
		got = append(got, recordShape(t, s))
	}
	if *update {
		b, err := encodeRoutesGolden(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routesGoldenPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(routesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenShape
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d shapes, golden table has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || !reflect.DeepEqual(g.Hosts, w.Hosts) || !reflect.DeepEqual(g.Links, w.Links) {
			t.Errorf("%s: hosts or link table differ from the golden table", w.Name)
			continue
		}
		if len(g.Routes) != len(w.Routes) {
			t.Errorf("%s: %d routes, golden table has %d", w.Name, len(g.Routes), len(w.Routes))
			continue
		}
		for j, wr := range w.Routes {
			if gr := g.Routes[j]; !reflect.DeepEqual(gr, wr) {
				t.Errorf("%s: route %d->%d = %v, golden %v", w.Name, wr.Src, wr.Dst, gr, wr)
			}
		}
	}
}

// encodeRoutesGolden renders the table as JSON with one link or route per
// line, so that a routing change shows up as a line-sized diff.
func encodeRoutesGolden(shapes []goldenShape) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[")
	for i, s := range shapes {
		hosts, err := json.Marshal(s.Hosts)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n{\"name\": %q,\n \"hosts\": %s,\n \"links\": [", s.Name, hosts)
		if err := encodeLines(&b, s.Links); err != nil {
			return nil, err
		}
		b.WriteString("],\n \"routes\": [")
		if err := encodeLines(&b, s.Routes); err != nil {
			return nil, err
		}
		b.WriteString("]}")
	}
	b.WriteString("\n]\n")
	return b.Bytes(), nil
}

func encodeLines[T any](b *bytes.Buffer, items []T) error {
	for i, it := range items {
		j, err := json.Marshal(it)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		b.Write(j)
	}
	b.WriteString("\n ")
	return nil
}
