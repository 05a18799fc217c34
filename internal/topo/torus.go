package topo

import "fmt"

// Torus is a 2D or 3D torus: every host is a node with a router, nodes are
// arranged in a wrap-around grid, and each node has one directional link to
// each neighbor per dimension and direction. Dimension-order routing
// corrects coordinates one dimension at a time, taking the shorter way
// around each ring (ties go the positive direction), which is deterministic
// and trivially deadlock-/loop-free. Injection and ejection links model the
// NIC, so flows sharing an endpoint contend there like on the other
// topologies.
type Torus struct {
	dims  []int
	hosts int
}

// NewTorus builds a torus shape from 2 or 3 dimension radii. Field names
// in errors refer to the platform.Spec JSON fields that carry the values.
func NewTorus(dims []int) (*Torus, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf(`topo: "torus_dims" must list 2 or 3 dimensions, got %d`, len(dims))
	}
	hosts := 1
	for i, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf(`topo: "torus_dims"[%d] must be at least 2, got %d`, i, d)
		}
		if hosts > maxHosts/d {
			return nil, fmt.Errorf(`topo: "torus_dims" product exceeds the %d-host limit`, maxHosts)
		}
		hosts *= d
	}
	return &Torus{dims: append([]int(nil), dims...), hosts: hosts}, nil
}

// Hosts implements Topology.
func (t *Torus) Hosts() int { return t.hosts }

// Dims returns the dimension radii.
func (t *Torus) Dims() []int { return append([]int(nil), t.dims...) }

// neighbor returns the id of node's directional link in dimension d: the
// positive-direction link when dir is 0, negative when 1.
func (t *Torus) neighbor(node, d, dir int) int {
	return 2*t.hosts + (node*len(t.dims)+d)*2 + dir
}

// Links implements Topology: NIC links, then per node and dimension the
// +/- neighbor links.
func (t *Torus) Links() []LinkDesc {
	nd := len(t.dims)
	descs := appendHostLinks(make([]LinkDesc, 0, 2*t.hosts*(1+nd)), t.hosts, "h%d-up", "h%d-down")
	coord := make([]int, nd)
	for node := 0; node < t.hosts; node++ {
		for d := 0; d < nd; d++ {
			descs = append(descs,
				LinkDesc{Name: fmt.Sprintf("n%v-d%d-plus", coord, d), Class: ClassFabric},
				LinkDesc{Name: fmt.Sprintf("n%v-d%d-minus", coord, d), Class: ClassFabric},
			)
		}
		for d := 0; d < nd; d++ { // advance the mixed-radix coordinate
			if coord[d]++; coord[d] < t.dims[d] {
				break
			}
			coord[d] = 0
		}
	}
	return descs
}

// AppendRoute implements Topology: dimension-order routing, shortest way
// around each ring. Network hops are bounded by the sum of the dimension
// radii halved (floor(d_i/2) per dimension).
func (t *Torus) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	buf = append(buf, hostUp(src))
	node, rem, dstRem := src, src, dst
	stride := 1
	for d, dim := range t.dims {
		sc, dc := rem%dim, dstRem%dim
		rem, dstRem = rem/dim, dstRem/dim
		if sc != dc {
			fwd := (dc - sc + dim) % dim
			if back := dim - fwd; fwd <= back {
				for i := 0; i < fwd; i++ {
					buf = append(buf, t.neighbor(node, d, 0))
					if sc++; sc == dim {
						sc = 0
						node -= (dim - 1) * stride
					} else {
						node += stride
					}
				}
			} else {
				for i := 0; i < back; i++ {
					buf = append(buf, t.neighbor(node, d, 1))
					if sc--; sc < 0 {
						sc = dim - 1
						node += (dim - 1) * stride
					} else {
						node -= stride
					}
				}
			}
		}
		stride *= dim
	}
	return append(buf, hostDown(dst))
}

var _ Topology = (*Torus)(nil)
