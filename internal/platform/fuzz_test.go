package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"tireplay/internal/sim"
)

// fuzzMaxCount and fuzzMaxLevels bound the work of one FuzzPlatformSpec
// input: a spec whose hosts, cabinets, hosts_per_cabinet, radix, groups,
// routers_per_group, hosts_per_router or any torus_dims entry exceeds
// fuzzMaxCount, or whose levels exceeds fuzzMaxLevels, is decoded but not
// built. Every shape built then has at most 16^3 hosts and a few ten
// thousand links. The constructors' own host limit is tested by
// TestSpecTopologyValidationFuzz.
const fuzzMaxCount, fuzzMaxLevels = 16, 3

// fuzzSpecs seed the corpus: the spec JSON of the platform tests, the
// bordereau and graphene specs of internal/ground, and the three
// perfbench platforms.
var fuzzSpecs = []string{
	`{"name":"x","bogus":1}`,
	`{"name": "df", "topology": "dragonfly", "groups": 2, "routers_per_group": 2, "hosts_per_router": 2,
	  "routing": "adaptive", "speed": 1e9, "link_bandwidth": 1.25e9, "link_latency": 1e-6,
	  "local_bandwidth": 5e9, "local_latency": 2e-6, "global_bandwidth": 1e10, "global_latency": 1e-5}`,
	`{"name": "tor", "topology": "torus", "torus_dims": [4, 2, 2], "speed": 1e9,
	  "link_bandwidth": 1.25e9, "link_latency": 1e-6, "backbone_bandwidth": 5e9, "backbone_latency": 2e-6}`,
	`{"name": "bordereau", "topology": "flat", "hosts": 93, "speed": 2.15e9,
	  "link_bandwidth": 1.25e8, "link_latency": 3e-5, "backbone_bandwidth": 1.25e9, "backbone_latency": 1.5e-6,
	  "loopback_latency": 2e-7, "factors": [{"max_bytes": 1024, "lat_factor": 1.9, "bw_factor": 0.25},
	  {"max_bytes": 8192, "lat_factor": 1.5, "bw_factor": 0.55}, {"max_bytes": 65536, "lat_factor": 1.3, "bw_factor": 0.8},
	  {"max_bytes": 1048576, "lat_factor": 1.05, "bw_factor": 0.92}, {"max_bytes": 0, "lat_factor": 1, "bw_factor": 0.97}]}`,
	`{"name": "graphene", "topology": "hierarchical", "cabinets": 4, "hosts_per_cabinet": 36, "speed": 4e9,
	  "link_bandwidth": 1.25e8, "link_latency": 2.5e-5, "cabinet_bandwidth": 1.25e9, "cabinet_latency": 1.5e-6,
	  "backbone_bandwidth": 2.5e9, "backbone_latency": 2e-6, "loopback_latency": 2e-7,
	  "factors": [{"max_bytes": 65536, "lat_factor": 1.3, "bw_factor": 0.8}, {"max_bytes": 0, "lat_factor": 1, "bw_factor": 0.97}]}`,
	`{"name": "xbar64", "topology": "crossbar", "hosts": 64, "speed": 2e9, "link_bandwidth": 1.25e8, "link_latency": 2e-5}`,
	`{"name": "df64", "topology": "dragonfly", "groups": 4, "routers_per_group": 4, "hosts_per_router": 4,
	  "routing": "adaptive", "speed": 2e9, "link_bandwidth": 1.25e9, "link_latency": 1e-6,
	  "local_bandwidth": 5e9, "local_latency": 2e-6, "global_bandwidth": 1e10, "global_latency": 1e-5}`,
	`{"name": "torus32", "topology": "torus", "torus_dims": [8, 4], "speed": 2e9,
	  "link_bandwidth": 1.25e9, "link_latency": 1e-6, "backbone_bandwidth": 5e9, "backbone_latency": 2e-6}`,
}

// fuzzTooBig reports whether s has a shape field past the fuzz caps.
func fuzzTooBig(s *Spec) bool {
	if s.Levels > fuzzMaxLevels {
		return true
	}
	counts := append([]int{s.Hosts, s.Cabinets, s.HostsPerCabinet, s.Radix, s.Groups, s.RoutersPerGroup, s.HostsPerRouter}, s.TorusDims...)
	for _, n := range counts {
		if n > fuzzMaxCount {
			return true
		}
	}
	return false
}

// FuzzPlatformSpec feeds arbitrary bytes to the strict spec decoder and
// builds what decodes. The property is "structured error or valid
// platform, never a panic": Build either fails, or returns a platform with
// at least one host, whose links all have a positive bandwidth, a finite,
// non-negative latency and their index in Links() as ID, and which routes
// from its first host to its last and back over its own links only.
func FuzzPlatformSpec(f *testing.F) {
	for _, s := range fuzzSpecs {
		f.Add([]byte(s))
	}
	for _, s := range goldenSpecs() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSpec(bytes.NewReader(data))
		if err != nil || fuzzTooBig(s) {
			return
		}
		p, _, err := s.Build()
		if err != nil {
			return
		}
		if p.Size() < 1 {
			t.Fatalf("%s built with %d hosts", data, p.Size())
		}
		links := p.Links()
		for i, l := range links {
			if !(l.Bandwidth > 0) || l.Latency < 0 || math.IsNaN(l.Latency) || math.IsInf(l.Latency, 0) || l.ID != i {
				t.Fatalf("%s built link %d: %v with ID %d", data, i, l, l.ID)
			}
		}
		first, last := p.Host(0), p.Host(p.Size()-1)
		for _, r := range []sim.Route{p.Route(nil, first, last), p.Route(nil, last, first)} {
			for _, l := range r.Links {
				if uint(l.ID) >= uint(len(links)) || links[l.ID] != l {
					t.Fatalf("%s routes over foreign link %v", data, l)
				}
			}
		}
	})
}
