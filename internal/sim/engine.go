package sim

import (
	"fmt"
	"math"
	"strings"
)

// Stats accumulates engine-level counters, used by the efficiency
// benchmarks (the paper's second axis: how fast the replay itself runs).
type Stats struct {
	ContextSwitches int64 `json:"context_switches"` // process scheduling handoffs
	TimersFired     int64 `json:"timers_fired"`
	CommsStarted    int64 `json:"comms_started"`
	CommsCompleted  int64 `json:"comms_completed"`
	ShareRecomputes int64 `json:"share_recomputes"` // recompute passes (events with a dirty flow set)
	Events          int64 `json:"events"`           // time-advance steps
	// ComponentsResolved counts the sub-components re-solved by the
	// incremental max-min solver — sets of flows joined by links that can
	// saturate; a link whose bandwidth exceeds the sum of its flows' rate
	// bounds joins nothing — and FlowsResolved the flows they contained.
	// FlowsResolved/ComponentsResolved is the mean re-solve scope, the
	// measure of how much work incrementality avoids versus a from-scratch
	// solve (which re-solves every active flow on every pass).
	ComponentsResolved int64 `json:"components_resolved"`
	FlowsResolved      int64 `json:"flows_resolved"`
	// MaxComponentFlows is the largest single sub-component (in flows, see
	// ComponentsResolved) handed to the solver over the whole run.
	// Structured topologies (fat tree, dragonfly, torus) are characterized
	// by how large this grows relative to the active flow count: a
	// full-bisection crossbar keeps sub-components tiny, while a congested
	// torus can fuse every active flow into one.
	MaxComponentFlows int64 `json:"max_component_flows"`
}

// Engine is a sequential discrete-event simulator. Simulated processes are
// continuation machines (see Prog) that the engine steps inline, exactly
// one at a time in deterministic FIFO order, so simulated programs need no
// synchronization and runs are fully deterministic.
type Engine struct {
	now      float64
	router   Router
	netModel NetworkModel

	procs    []*Proc
	runq     procRing
	nalive   int
	timers   timerHeap
	timerSeq int64
	commSeq  int64

	// Pair mailbox namespaces, indexed by their id less one (see Mbox).
	spaces []*PairSpace

	// Recycled comms. Machines release every comm they reference (see
	// progMachine), so a completed, unreferenced comm is always reusable.
	commPool []*Comm

	// Fluid-network state: all active flows, the per-link registries tying
	// them into the solver's sub-components (indexed by Link.ID, nil for a
	// link no transfer has crossed yet), the min-heap of projected
	// completion times, and the flows stalled at rate 0 (re-examined every
	// recompute and reported in deadlock diagnostics).
	active      []*flow
	linkStates  []*linkState
	completions flowHeap
	stalled     []*flow
	flowSeq     int64

	// Incremental-solver bookkeeping: seeds accumulated since the last
	// recompute, the traversal generation, reusable scratch buffers (a
	// sub-component's flows and links, and the flows one fill level fixes),
	// and the from-scratch escape hatch.
	sharesDirty bool
	dirtyFlows  []*flow
	dirtyLinks  []*linkState
	mark        int64
	compBuf     []*flow
	compLinkBuf []*linkState
	levelBuf    []*flow
	stallSeeds  []*flow
	fromScratch bool

	err   error
	stats Stats
}

// Option configures an Engine.
type Option func(*Engine)

// WithNetworkModel installs a non-default network model (e.g. the SMPI
// piece-wise-linear factors).
func WithNetworkModel(m NetworkModel) Option {
	return func(e *Engine) { e.netModel = m }
}

// WithFromScratchSharing disables the incremental max-min solver: every
// recompute re-solves every active flow, as the kernel originally did. The
// allocation is identical by construction; the option exists as the
// reference for equivalence tests and before/after benchmarks.
func WithFromScratchSharing() Option {
	return func(e *Engine) { e.fromScratch = true }
}

// NewEngine creates an engine that routes communications with router.
func NewEngine(router Router, opts ...Option) *Engine {
	e := &Engine{
		router:   router,
		netModel: DefaultModel{},
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// fail records a fatal simulation error; Run returns it after the current
// scheduling round.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// wake moves a blocked process back to the run queue.
func (e *Engine) wake(p *Proc) {
	if p.state != procBlocked {
		return
	}
	p.state = procRunnable
	p.blockedOn = blockInfo{}
	e.runq.push(p)
}

// DeadlockError is returned by Run when simulated processes remain blocked
// with no pending activity to wake them (e.g. a receive whose matching send
// is never posted — typically a malformed trace). Stalled lists in-flight
// transfers frozen at rate 0 (their links' capacity fully consumed by
// cap-bounded flows), which block their waiters just as surely as a missing
// match does.
type DeadlockError struct {
	Time    float64
	Blocked []string // "name: reason" for each blocked process
	Stalled []string // description of each zero-rate flow
}

func (d *DeadlockError) Error() string {
	msg := fmt.Sprintf("sim: deadlock at t=%g with %d blocked process(es): %s",
		d.Time, len(d.Blocked), strings.Join(d.Blocked, "; "))
	if len(d.Stalled) > 0 {
		msg += fmt.Sprintf("; %d stalled flow(s): %s", len(d.Stalled), strings.Join(d.Stalled, "; "))
	}
	return msg
}

// Run executes the simulation until every process has finished, a deadlock
// is detected, or a simulated program fails. It returns the first error.
func (e *Engine) Run() error {
	for {
		// Phase 1: let every runnable process advance until it blocks.
		for e.runq.len() > 0 && e.err == nil {
			e.resume(e.runq.pop())
		}
		if e.err != nil {
			return e.err
		}
		if e.nalive == 0 {
			return nil
		}
		// Phase 2: advance simulated time to the next event.
		if len(e.timers) == 0 && len(e.active) == 0 {
			return e.deadlock()
		}
		if e.sharesDirty {
			e.recomputeShares()
			e.stats.ShareRecomputes++
		}
		dt := e.nextEventDelta()
		if math.IsInf(dt, 1) {
			return e.deadlock()
		}
		e.advance(dt)
		e.stats.Events++
	}
}

func (e *Engine) deadlock() error {
	var blocked []string
	for _, p := range e.procs {
		if p.state == procBlocked {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.Name, p.blockedOn))
		}
	}
	var stalled []string
	for _, f := range e.stalled {
		stalled = append(stalled, fmt.Sprintf("comm %d on %q (%s -> %s): %g of %g bytes left at rate 0",
			f.comm.ID, f.comm.Mailbox(), f.comm.src, f.comm.dst, f.rem, f.comm.Size))
	}
	return &DeadlockError{Time: e.now, Blocked: blocked, Stalled: stalled}
}

// nextEventDelta returns the time until the earliest pending transition:
// the next timer deadline or the earliest projected flow completion.
func (e *Engine) nextEventDelta() float64 {
	dt := math.Inf(1)
	if len(e.timers) > 0 {
		if d := e.timers[0].deadline - e.now; d < dt {
			dt = d
		}
	}
	if len(e.completions) > 0 {
		if d := e.completions[0].finish - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}
	return dt
}

// completable reports whether f's transfer is over at simulated time now.
// byteEps absorbs floating-point residue: a flow within a few ULPs of empty
// is complete. The finish <= now clause additionally catches projections so
// close that now+dt rounds to now, which would otherwise spin the event
// loop at zero dt.
func (f *flow) completable(now float64) bool {
	if math.IsInf(f.rate, 1) || f.finish <= now {
		return true
	}
	byteEps := 1e-9 + 1e-12*f.comm.Size
	return f.rem-f.rate*(now-f.lastT) <= byteEps
}

// advance moves simulated time forward by dt, completing finished transfers
// and firing due timers.
func (e *Engine) advance(dt float64) {
	e.now += dt
	for len(e.completions) > 0 && e.completions[0].completable(e.now) {
		f := e.completions.pop()
		e.removeFlow(f)
		e.completeComm(f.comm)
	}
	// Fire due timers. A fired timer may schedule new timers or start flows;
	// both are picked up on the next loop iteration.
	const timeEps = 1e-12
	for len(e.timers) > 0 && e.timers[0].deadline <= e.now+timeEps {
		e.stats.TimersFired++
		e.dispatch(e.timers.pop())
	}
}
