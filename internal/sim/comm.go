package sim

import "fmt"

// CommState tracks the lifecycle of a communication.
type CommState int

// Communication lifecycle states.
const (
	// CommPending: one side (send or recv) has been posted, waiting for the
	// matching side.
	CommPending CommState = iota
	// CommLatency: both sides are known (or the send is detached); the
	// transfer is in its latency stage.
	CommLatency
	// CommFlowing: the transfer is in its fluid (bandwidth) stage.
	CommFlowing
	// CommDone: all bytes have been delivered.
	CommDone
)

// Comm is a point-to-point data transfer between two hosts. It is created by
// the first side to post (send or receive) and completed when the last byte
// is delivered. The MPI layer composes Comms into the full MPI semantics
// (eager, rendezvous, collectives).
type Comm struct {
	// ID is a unique, monotonically increasing identifier (deterministic).
	ID int64
	// Size is the payload size in bytes.
	Size float64
	// Detached reports whether the sender fire-and-forgot this transfer
	// (eager mode small messages in the paper: "the send corresponds to the
	// time of a copy of the data in the memory").
	Detached bool

	// The flags and the reference count fill the word Detached starts, so
	// the struct keeps to the 352-byte allocation size class, and the
	// fields a match-queue walk reads (hasSend, box, next) lie together.
	hasSend bool
	hasRecv bool
	queued  bool // sitting in its pair space's match queue
	refs    int32
	// box identifies the mailbox this comm was posted on; the name is
	// materialized lazily (Mailbox) so rank-pair transfers never allocate a
	// string on the hot path.
	box        Mbox
	next       *Comm // the comm queued after it, while queued
	src, dst   *Host
	sender     *Proc // nil once detached
	receiver   *Proc // nil until recv posted
	state      CommState
	fl         *flow
	engine     *Engine
	waiters    []*Proc
	finishTime float64

	// flowStore is the comm's fluid stage, embedded to avoid a separate
	// allocation per transfer; fl points at it while flowing. waiterBuf
	// similarly backs waiters for the common one-or-two-waiter case, and
	// linkBuf backs the route's link list. All three survive recycling, so
	// a pooled comm's transfers stop allocating once the buffers have grown
	// to their steady size.
	flowStore flow
	waiterBuf [2]*Proc
	linkBuf   []*Link
}

// Done reports whether the transfer has fully completed.
func (c *Comm) Done() bool { return c.state == CommDone }

// Mailbox returns the name of the rendezvous point this comm was matched
// on. Pair-space names are formatted on demand: they exist only in
// diagnostics, so the quadratically many rank pairs of a large replay never
// pay for them.
func (c *Comm) Mailbox() string { return c.engine.boxName(c.box) }

// newComm hands out the comm of a first post on mb, with the next ID,
// recycling completed ones.
func (e *Engine) newComm(mb Mbox) *Comm {
	var c *Comm
	if n := len(e.commPool); n > 0 {
		c = e.commPool[n-1]
		e.commPool[n-1] = nil
		e.commPool = e.commPool[:n-1]
		linkPos := c.flowStore.linkPos[:0]
		lstates := c.flowStore.lstates[:0]
		linkBuf := c.linkBuf[:0]
		*c = Comm{engine: e}
		c.flowStore.linkPos = linkPos
		c.flowStore.lstates = lstates
		c.linkBuf = linkBuf
	} else {
		c = &Comm{engine: e}
	}
	e.commSeq++
	c.ID = e.commSeq
	c.box = mb
	c.state = CommPending
	return c
}

// retain marks one more holder of c (a machine register or pending queue
// slot).
func (c *Comm) retain() { c.refs++ }

// removeWaiter deletes one registration of p from c's waiter list,
// preserving the wake order of the others. Wait-any registers a process on
// several comms at once and must scrub the losers after every wake.
func (c *Comm) removeWaiter(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// release drops one holder and recycles the comm if possible.
func (c *Comm) release() {
	c.refs--
	c.maybeRecycle()
}

// maybeRecycle returns a comm to the engine pool once it is completed,
// unreferenced, and out of its match queue.
func (c *Comm) maybeRecycle() {
	e := c.engine
	if c.refs != 0 || c.queued || c.state != CommDone {
		return
	}
	c.sender, c.receiver = nil, nil
	c.waiters = nil
	c.waiterBuf = [2]*Proc{}
	e.commPool = append(e.commPool, c)
}

// postSend registers a send on mailbox mb. If a receive is already waiting
// the comm starts immediately; otherwise it is queued.
func (e *Engine) postSend(mb Mbox, p *Proc, size float64, detached bool) *Comm {
	s := e.space(mb)
	q := s.queue(mb)
	c := q.take(mb, false)
	if c == nil {
		c = e.newComm(mb)
		q.push(c)
		// A detached send needs no matching receive to start moving: the
		// data is pushed toward the destination mailbox and buffered there.
		// The destination host is resolved when the receive is posted; until
		// then the transfer is held in the match queue. To model the eager
		// protocol's behaviour — data travels immediately — we optimistically
		// start the transfer toward the mailbox's pinned host if one is
		// declared, and otherwise defer to match time.
		if detached {
			c.dst = s.pinnedHost(mb)
		}
	}
	c.Size = size
	c.Detached = detached
	c.src = p.Host
	c.sender = p
	c.hasSend = true
	if c.dst != nil {
		e.startComm(c)
	}
	return c
}

// postRecv registers a receive on mailbox mb. If a send is waiting the comm
// starts (or, for an in-flight detached send, is simply claimed); otherwise
// it is queued.
func (e *Engine) postRecv(mb Mbox, p *Proc) *Comm {
	q := e.space(mb).queue(mb)
	c := q.take(mb, true)
	if c == nil {
		c = e.newComm(mb)
		q.push(c)
	}
	c.receiver = p
	c.hasRecv = true
	if c.state == CommPending {
		c.dst = p.Host
		if c.hasSend {
			e.startComm(c)
		}
	}
	return c
}

// startComm moves a matched (or detached-started) comm into its latency
// stage and schedules the transition to the fluid stage.
func (e *Engine) startComm(c *Comm) {
	if c.src == nil || c.dst == nil {
		panic("sim: startComm with unresolved endpoints")
	}
	// The route's links land in the comm's own buffer, which outlives the
	// flow (flowStore.links aliases it below) and is reused across recycles
	// — no per-transfer route allocation.
	route := e.router.Route(c.linkBuf[:0], c.src, c.dst)
	c.linkBuf = route.Links
	// The engine's per-link state is indexed by Link.ID, so each link must
	// have a slot of its own; registering the link here catches an ID that
	// another link already holds.
	for _, l := range route.Links {
		if l.Bandwidth <= 0 {
			e.fail(fmt.Errorf("sim: comm %d crosses link %s with non-positive bandwidth", c.ID, l.Name))
			return
		}
		if l.ID < 0 {
			e.fail(fmt.Errorf("sim: comm %d crosses link %s with negative id %d", c.ID, l.Name, l.ID))
			return
		}
		if ls := e.linkState(l); ls.link != l {
			e.fail(fmt.Errorf("sim: comm %d crosses links %s and %s, which share id %d", c.ID, ls.link.Name, l.Name, l.ID))
			return
		}
	}
	latency, cap := e.netModel.Effective(route, c.Size)
	c.state = CommLatency
	e.stats.CommsStarted++
	linkPos := c.flowStore.linkPos[:0]
	lstates := c.flowStore.lstates[:0]
	c.flowStore = flow{comm: c, links: route.Links, cap: cap, rem: c.Size, linkPos: linkPos, lstates: lstates}
	e.afterFlow(latency, c)
}

// flowStage moves a comm whose latency stage has elapsed into its fluid
// (bandwidth-shared) stage, or completes it outright when it carries no
// payload.
func (e *Engine) flowStage(c *Comm) {
	if c.Size <= 0 {
		e.completeComm(c)
		return
	}
	c.state = CommFlowing
	c.fl = &c.flowStore
	e.addFlow(c.fl)
}

// completeComm marks a transfer done and wakes every process waiting on it.
func (e *Engine) completeComm(c *Comm) {
	c.state = CommDone
	c.finishTime = e.now
	c.fl = nil
	e.stats.CommsCompleted++
	for _, p := range c.waiters {
		e.wake(p)
	}
	c.waiters = c.waiters[:0]
	// A transfer nobody holds a reference to (detached eager sends, the MSG
	// prototype's fire-and-forget small messages) recycles here; referenced
	// ones recycle when their last holder releases.
	c.maybeRecycle()
}
