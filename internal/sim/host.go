// Package sim implements the discrete-event simulation kernel the replay
// framework is built on. It plays the role SimGrid's SURF/SIMIX layers play
// in the paper: simulated processes are continuation machines interpreting
// micro-op programs, stepped in lockstep (exactly one at a time, in
// deterministic FIFO order), computations are modelled as timers, and
// communications as fluid flows that share link bandwidth under bounded
// max-min fairness.
package sim

import "fmt"

// Host is a computing resource. One simulated process is typically pinned to
// one host (one core), so computations do not contend with each other: an
// Exec of n instructions at rate r lasts exactly n/r seconds.
type Host struct {
	// Name identifies the host in routes and error messages.
	Name string
	// Speed is the default compute rate in instructions per second used by
	// Prog.Exec. Calibration (Section 3.4 of the paper) determines this
	// value for simulated platforms.
	Speed float64
	// ID is the host's index in the platform that built it; only the
	// builder sets it. Routers index their host tables by it.
	ID int
}

func (h *Host) String() string {
	if h == nil {
		return "<nil host>"
	}
	return h.Name
}

// Link is a network resource with a capacity shared by the flows that cross
// it. Latency is accounted once per transfer, before the fluid stage.
type Link struct {
	// Name identifies the link.
	Name string
	// Bandwidth is the capacity in bytes per second. It must be positive for
	// any link placed on a route.
	Bandwidth float64
	// Latency in seconds, summed along a route.
	Latency float64
}

func (l *Link) String() string {
	if l == nil {
		return "<nil link>"
	}
	return fmt.Sprintf("%s(bw=%g,lat=%g)", l.Name, l.Bandwidth, l.Latency)
}

// Route is the ordered set of links a transfer between two hosts traverses,
// plus the total base latency of the path (usually the sum of the link
// latencies, but routers may add switching delays).
type Route struct {
	Links   []*Link
	Latency float64
}

// Router resolves the route between two hosts; platform.Platform is the
// implementation. Route appends the route's links to buf — the engine
// passes a buffer owned by the comm being routed and reused across
// transfers, so routing allocates nothing once it has grown — and returns
// a Route whose Links are buf extended (possibly by nothing).
// Implementations must not retain buf.
type Router interface {
	Route(buf []*Link, src, dst *Host) Route
}

// NetworkModel maps a transfer (route, size) to the effective latency and an
// optional per-flow rate cap. It is the hook through which the SMPI
// piece-wise-linear model of Section 3.3 plugs into the kernel: correction
// factors depending on the message size adjust both values. The zero model
// (DefaultModel) applies the route latency unchanged and no cap.
type NetworkModel interface {
	Effective(route Route, size float64) (latency, rateCap float64)
}

// DefaultModel is the factor-free network model: latency is the route
// latency and flows are limited only by link capacities.
type DefaultModel struct{}

// Effective implements NetworkModel.
func (DefaultModel) Effective(route Route, size float64) (latency, rateCap float64) {
	return route.Latency, 0
}
