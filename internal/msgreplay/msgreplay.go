// Package msgreplay reimplements the paper's *first* trace replay backend,
// the one built on SimGrid's MSG API (Section 2.4 and the beginning of
// Section 3.3). It exists as the baseline whose inaccuracy Figure 3 shows:
//
//   - small messages (< 64 KiB) are sent with a plain asynchronous send —
//     the transfer only starts when the receiver posts its receive, unlike
//     the detached eager mode of real MPI runtimes ("we tried to model that
//     by using an asynchronous send for such small messages. However, it is
//     not what is actually implemented by most MPI runtimes");
//   - large messages use a fully blocking task send;
//   - collective operations are modelled by monolithic formulas instead of
//     being simulated as sets of point-to-point messages, and synchronize
//     all ranks;
//   - the network model is factor-free (no piece-wise-linear corrections).
package msgreplay

import (
	"fmt"
	"math"

	"tireplay/internal/sim"
)

// Config holds the reference network figures used by the monolithic
// collective formulas (the MSG prototype hard-coded comparable constants).
type Config struct {
	// EagerThreshold mirrors the "size < 65536" test of the original
	// action_send; zero selects 65536.
	EagerThreshold float64 `json:"eager_threshold,omitempty"`
	// RefLatency and RefBandwidth parameterize the collective formulas.
	RefLatency   float64 `json:"ref_latency,omitempty"`
	RefBandwidth float64 `json:"ref_bandwidth,omitempty"`
}

func (c Config) eagerThreshold() float64 {
	if c.EagerThreshold == 0 {
		return 65536
	}
	return c.EagerThreshold
}

// PrototypeConfig returns the reference network figures the original MSG
// prototype hard-coded (the values every paper-faithful replay of the first
// implementation uses).
func PrototypeConfig() Config {
	return Config{RefLatency: 6.5e-5, RefBandwidth: 1.25e8}
}

// World is the MSG-style replay context: ranks mapped to hosts and a shared
// barrier for monolithic collectives.
type World struct {
	engine  *sim.Engine
	hosts   []*sim.Host
	cfg     Config
	barrier *sim.Barrier
	pairs   *sim.PairSpace
}

// NewWorld creates a replay context for len(hosts) ranks. The pair mailbox
// space is deliberately not pinned: MSG transfers start only when both sides
// are present, which is the modelling deficiency the paper fixes.
func NewWorld(engine *sim.Engine, hosts []*sim.Host, cfg Config) (*World, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("msgreplay: empty host list")
	}
	for i, h := range hosts {
		if h == nil {
			return nil, fmt.Errorf("msgreplay: nil host for rank %d", i)
		}
	}
	if cfg.RefLatency < 0 || cfg.RefBandwidth < 0 {
		return nil, fmt.Errorf("msgreplay: negative reference network figures")
	}
	return &World{
		engine:  engine,
		hosts:   hosts,
		cfg:     cfg,
		barrier: engine.NewBarrier(len(hosts)),
		pairs:   engine.NewPairSpace("m", nil),
	}, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.hosts) }

// SpawnProg starts one rank as a continuation program; see TaskRank for the
// compiler producing such feeds.
func (w *World) SpawnProg(rank int, feed sim.Feed) {
	if rank < 0 || rank >= len(w.hosts) {
		panic(fmt.Sprintf("msgreplay: rank %d out of range [0,%d)", rank, len(w.hosts)))
	}
	w.engine.SpawnProg(fmt.Sprintf("msg-rank%d", rank), w.hosts[rank], feed)
}

func (w *World) box(src, dst int) sim.Mbox { return w.pairs.Box(src, dst) }

func (w *World) log2ceil() float64 {
	return math.Ceil(math.Log2(float64(w.Size())))
}

// perHop is the modelled cost of moving bytes across one logical hop.
func (w *World) perHop(bytes float64) float64 {
	d := w.cfg.RefLatency
	if w.cfg.RefBandwidth > 0 {
		d += bytes / w.cfg.RefBandwidth
	}
	return d
}

// vectorHops sums the per-hop cost of the P-1 distinct volumes a vector
// collective moves through rank's position: one hop per peer, each at its
// own size. It is the vector generalization of the (P-1)*perHop(bytes)
// formulas of the plain collectives.
func (w *World) vectorHops(vols []float64, rank int) float64 {
	var d float64
	for k, v := range vols {
		if k == rank {
			continue
		}
		d += w.perHop(v)
	}
	return d
}
