// Package topo implements every interconnect shape a platform can have as
// a pure routing graph: the paper's clusters — a flat cluster behind one
// switch (Star, bordereau) and cabinets behind a backbone (Cabinets,
// graphene) — a full-bisection crossbar, and the structured topologies
// real HPC machines use: k-ary fat trees, dragonflies, and 2D/3D tori. A
// Topology owns a dense integer id space of hosts and links and computes
// deterministic routes as link-id sequences appended into a caller-owned
// buffer, so the hot routing path allocates nothing. The platform package
// materializes a Topology into sim.Host and sim.Link objects and routes
// over it; this package deliberately knows nothing about the simulation
// kernel, which keeps the routing algorithms independently
// property-testable (symmetry, loop freedom, hop bounds, physical
// adjacency).
//
// All routing here is deterministic per (src, dst) pair: the same pair
// always yields the same link sequence, which is what makes whole replays
// bit-reproducible across schedulers and backends. Where a real machine
// would pick among paths adaptively (dragonfly), the choice is derived from
// a symmetric hash of the pair, i.e. per flow rather than per packet.
package topo

import "fmt"

// Class partitions a topology's links into the families that platform
// configuration assigns bandwidth and latency to.
type Class int

const (
	// ClassHost links attach an endpoint to its first switch or router (the
	// NIC cable): every route starts on a host link of the source and ends
	// on one of the destination, so same-endpoint flows contend here.
	ClassHost Class = iota
	// ClassFabric links join switches of the interconnect proper: fat-tree
	// level-to-level cables, torus neighbor links, and cluster backbones.
	ClassFabric
	// ClassLocal links join routers inside one dragonfly group.
	ClassLocal
	// ClassGlobal links join dragonfly groups (the long optical cables).
	ClassGlobal
	// ClassCabinet links are the switch and the backbone uplink of one
	// cabinet of a hierarchical cluster.
	ClassCabinet
)

func (c Class) String() string {
	switch c {
	case ClassHost:
		return "host"
	case ClassFabric:
		return "fabric"
	case ClassLocal:
		return "local"
	case ClassGlobal:
		return "global"
	case ClassCabinet:
		return "cabinet"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// LinkDesc describes one link of a topology: a stable human-readable name
// (unique within the topology) and the class that selects its
// bandwidth/latency parameters.
type LinkDesc struct {
	Name  string
	Class Class
}

// Topology is a routable interconnect: hosts 0..Hosts()-1 joined by the
// links of Links(), with a deterministic route between every ordered host
// pair.
type Topology interface {
	// Hosts returns the number of endpoints.
	Hosts() int
	// Links enumerates every link; the slice index is the link id
	// AppendRoute emits.
	Links() []LinkDesc
	// AppendRoute appends the link ids of the route from src to dst (two
	// distinct, in-range hosts) to buf and returns the extended buffer. The
	// sequence starts on a host link of src, ends on a host link of dst, and
	// never repeats a link. A host has an up and a down link, except on the
	// flat and hierarchical clusters, where its one link carries both
	// directions.
	AppendRoute(buf []int, src, dst int) []int
}

// pairMix hashes an unordered host pair into 64 well-mixed bits
// (splitmix64 finalizer). It is symmetric — pairMix(a,b) == pairMix(b,a) —
// so per-flow routing decisions derived from it (dragonfly path selection)
// give forward and reverse flows mirrored paths.
func pairMix(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)<<32 | uint64(b)&0xffffffff
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// maxHosts bounds topology sizes so malformed shapes (huge radices, dim
// products) are rejected with an error instead of exhausting memory.
const maxHosts = 1 << 22

// hostUp and hostDown are the link ids of an endpoint's NIC links; the
// crossbar and the zoo shapes lay their id space out with the 2*Hosts()
// host links first.
func hostUp(h int) int   { return 2 * h }
func hostDown(h int) int { return 2*h + 1 }

// appendHostLinks emits that shared host-link prefix of a link table: up
// and down per endpoint, in id order, named by formatting the host with
// the up and down formats.
func appendHostLinks(descs []LinkDesc, hosts int, up, down string) []LinkDesc {
	for h := 0; h < hosts; h++ {
		descs = append(descs,
			LinkDesc{Name: fmt.Sprintf(up, h), Class: ClassHost},
			LinkDesc{Name: fmt.Sprintf(down, h), Class: ClassHost},
		)
	}
	return descs
}
