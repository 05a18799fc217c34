package sim

// A Prog is a short straight-line program of kernel micro-ops — the
// compilation target for trace actions and the only way a simulated process
// is expressed. Replay backends lower each action (compute, the
// eager/rendezvous protocol stages of a send, a whole collective schedule)
// into ops; the engine interprets them inline from the event loop, one
// process's machine at a time, so simulated programs need no goroutines or
// synchronization and runs are fully deterministic.

type progOpKind uint8

const (
	opExec        progOpKind = iota // compute amt instructions at host speed
	opSleep                         // sleep amt seconds
	opPut                           // post async send on mb; disposition per reg
	opPutDetached                   // post detached (eager) send on mb
	opGet                           // post async recv on mb; disposition per reg
	opPushDone                      // append an already-completed placeholder to pending
	opWaitReg                       // block until regs[reg] completes, then release it
	opWaitPend                      // block until the oldest pending op completes
	opWaitAllPend                   // block until every pending op completes, FIFO
	opWaitAnyPend                   // block until any pending op completes; consume the lowest-indexed
	opAwait                         // arrive at bar
)

// Register dispositions for opPut/opGet results.
const (
	regDiscard int8 = -1 // drop the comm (fire-and-forget)
	regPend    int8 = -2 // append to the cross-action pending FIFO
)

type progOp struct {
	kind progOpKind
	reg  int8
	mb   Mbox
	amt  float64
	bar  *Barrier
}

// Prog accumulates micro-ops. A backend's compiler appends one action's
// worth of ops per Feed call.
type Prog struct {
	ops  []progOp
	nreg int
}

// Reset clears the program for the next action, keeping capacity.
func (p *Prog) Reset() { p.ops = p.ops[:0] }

func (p *Prog) reg(r int) int8 {
	if r < 0 || r > 127 {
		panic("sim: Prog register out of range")
	}
	if r+1 > p.nreg {
		p.nreg = r + 1
	}
	return int8(r)
}

// Exec computes instr instructions at the host's calibrated speed.
func (p *Prog) Exec(instr float64) {
	p.ops = append(p.ops, progOp{kind: opExec, amt: instr})
}

// Sleep suspends the process for d simulated seconds.
func (p *Prog) Sleep(d float64) {
	p.ops = append(p.ops, progOp{kind: opSleep, amt: d})
}

// Put posts a send of bytes on mb into register r (pair with WaitReg).
// The transfer starts when a matching receive is posted.
func (p *Prog) Put(mb Mbox, bytes float64, r int) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: p.reg(r), mb: mb, amt: bytes})
}

// PutPending posts a send onto the pending FIFO (Isend).
func (p *Prog) PutPending(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: regPend, mb: mb, amt: bytes})
}

// PutDiscard posts a send nobody waits on (the MSG prototype's
// small-message send: asynchronous, but the transfer still starts only at
// match time).
func (p *Prog) PutDiscard(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: regDiscard, mb: mb, amt: bytes})
}

// PutDetached posts a fire-and-forget send: the sender never waits and the
// transfer proceeds on its own, starting at once when mb is pinned to its
// receiving host (see NewPairSpace). This models the eager protocol's
// sender side ("the send corresponds to the time of a copy of the data in
// the memory" — the copy itself, if modelled, is charged separately by the
// MPI layer).
func (p *Prog) PutDetached(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPutDetached, reg: regDiscard, mb: mb, amt: bytes})
}

// Get posts a receive on mb into register r (pair with WaitReg).
func (p *Prog) Get(mb Mbox, r int) {
	p.ops = append(p.ops, progOp{kind: opGet, reg: p.reg(r), mb: mb})
}

// GetPending posts a receive onto the pending FIFO (Irecv).
func (p *Prog) GetPending(mb Mbox) {
	p.ops = append(p.ops, progOp{kind: opGet, reg: regPend, mb: mb})
}

// PushPendingDone records an already-completed nonblocking operation (an
// eager Isend: the request is born done) so trace wait/waitall stay
// FIFO-aligned with the operations that produced them.
func (p *Prog) PushPendingDone() {
	p.ops = append(p.ops, progOp{kind: opPushDone})
}

// WaitReg blocks until the comm in register r completes, then releases it.
func (p *Prog) WaitReg(r int) {
	p.ops = append(p.ops, progOp{kind: opWaitReg, reg: p.reg(r)})
}

// WaitPending compiles waiting on the oldest pending operation (trace wait).
func (p *Prog) WaitPending() {
	p.ops = append(p.ops, progOp{kind: opWaitPend})
}

// WaitAllPending compiles waiting on every pending operation in FIFO order
// (trace waitall).
func (p *Prog) WaitAllPending() {
	p.ops = append(p.ops, progOp{kind: opWaitAllPend})
}

// WaitAnyPending compiles waiting until any pending operation completes
// (trace waitany); the lowest-indexed completed one is consumed, the rest
// stay outstanding. Trace waitsome lowers to a run of these.
func (p *Prog) WaitAnyPending() {
	p.ops = append(p.ops, progOp{kind: opWaitAnyPend})
}

// Await blocks until every party has arrived at b (see Barrier.Arrive).
func (p *Prog) Await(b *Barrier) {
	p.ops = append(p.ops, progOp{kind: opAwait, bar: b})
}

// Feed refills prog with the micro-ops of the next trace action. It returns
// false when the rank's stream is exhausted (the process finishes) and a
// non-nil error to abort the whole simulation with that error (Engine.Run
// returns it with its chain intact). A call that appends no ops (e.g. an
// init/finalize marker) is fine; the machine just asks again at once.
type Feed func(prog *Prog) (more bool, err error)

// SpawnProg creates a process named name pinned to host, interpreting the
// micro-op programs produced by feed. It may be called before Run or from a
// running process's feed.
func (e *Engine) SpawnProg(name string, host *Host, feed Feed) *Proc {
	if host == nil {
		panic("sim: SpawnProg with nil host")
	}
	if feed == nil {
		panic("sim: SpawnProg with nil feed")
	}
	p := &Proc{Name: name, Host: host, engine: e, state: procRunnable}
	p.m.feed = feed
	e.procs = append(e.procs, p)
	e.runq.push(p)
	e.nalive++
	return p
}

// progMachine interprets a rank's micro-op stream: it executes ops until one
// blocks, refilling the program from feed when all ops are consumed. pc is
// only advanced past an op once it no longer needs re-examination, so a
// blocked wait re-checks its comm on every wake and re-registers until it
// completes.
type progMachine struct {
	prog    Prog
	pc      int
	regs    []*Comm
	pending []*Comm // cross-action nonblocking ops, FIFO; nil = born done
	head    int     // consumed prefix of pending
	feed    Feed
}

// step executes ops until one blocks (it returns false) or the feed is
// exhausted or fails (it returns true).
func (m *progMachine) step(p *Proc) (done bool) {
	e := p.engine
	for {
		if m.pc >= len(m.prog.ops) {
			// Program drained: lower the next trace action, so action
			// counting and lowering panics land at the simulated time the
			// previous action completes.
			m.prog.Reset()
			m.pc = 0
			for i, c := range m.regs {
				if c != nil { // scratch leaked past its action; drop the ref
					m.regs[i] = nil
					c.release()
				}
			}
			more, err := m.feed(&m.prog)
			if err != nil {
				e.fail(err)
				return true
			}
			if !more {
				return true
			}
			if n := m.prog.nreg; n > len(m.regs) {
				m.regs = append(m.regs, make([]*Comm, n-len(m.regs))...)
			}
			continue
		}
		op := &m.prog.ops[m.pc]
		switch op.kind {
		case opExec:
			if op.amt < 0 {
				p.faultf("Execute(%g): negative amount", op.amt)
			}
			rate := p.Host.Speed
			if rate <= 0 {
				p.faultf("Execute(%g) at non-positive rate %g", op.amt, rate)
			}
			m.pc++
			if op.amt == 0 {
				continue
			}
			d := op.amt / rate
			e.afterWake(d, p)
			p.state = procBlocked
			p.blockedOn = blockInfo{what: "sleep", amt: d}
			return false
		case opSleep:
			if op.amt < 0 {
				p.faultf("Sleep(%g): negative duration", op.amt)
			}
			m.pc++
			e.afterWake(op.amt, p)
			p.state = procBlocked
			p.blockedOn = blockInfo{what: "sleep", amt: op.amt}
			return false
		case opPut, opPutDetached:
			if op.amt < 0 {
				p.faultf("send of negative size %g", op.amt)
			}
			c := e.postSend(op.mb, p, op.amt, op.kind == opPutDetached)
			m.dispose(c, op.reg)
			m.pc++
		case opGet:
			c := e.postRecv(op.mb, p)
			m.dispose(c, op.reg)
			m.pc++
		case opPushDone:
			m.pending = append(m.pending, nil)
			m.pc++
		case opWaitReg:
			c := m.regs[op.reg]
			if !c.Done() {
				m.block(p, c)
				return false
			}
			m.regs[op.reg] = nil
			c.release()
			m.pc++
		case opWaitPend:
			c := m.pending[m.head]
			if c != nil {
				if !c.Done() {
					m.block(p, c)
					return false
				}
				m.pending[m.head] = nil
				c.release()
			}
			m.popPending()
			m.pc++
		case opWaitAnyPend:
			if m.head >= len(m.pending) {
				p.faultf("wait-any with no outstanding operations")
			}
			// Scrub stale registrations from a previous block on this op:
			// the completion that woke us cleared its own waiter list, but
			// the other comms still hold ours, and a stale entry would wake
			// this process out of whatever it blocks on next (wake only
			// checks that the process is blocked, not on what).
			for i := m.head; i < len(m.pending); i++ {
				if c := m.pending[i]; c != nil && !c.Done() {
					c.removeWaiter(p)
				}
			}
			sel := -1
			for i := m.head; i < len(m.pending); i++ {
				if c := m.pending[i]; c == nil || c.Done() {
					sel = i
					break
				}
			}
			if sel < 0 {
				n := 0
				for i := m.head; i < len(m.pending); i++ {
					c := m.pending[i]
					if c.waiters == nil {
						c.waiters = c.waiterBuf[:0]
					}
					c.waiters = append(c.waiters, p)
					n++
				}
				p.state = procBlocked
				p.blockedOn = blockInfo{what: "waitany", n: n}
				return false
			}
			if c := m.pending[sel]; c != nil {
				m.pending[sel] = nil
				c.release()
			}
			if sel == m.head {
				m.popPending()
			} else {
				// Consume a middle entry: shift the tail down so the FIFO
				// order of the survivors is preserved.
				copy(m.pending[sel:], m.pending[sel+1:])
				m.pending[len(m.pending)-1] = nil
				m.pending = m.pending[:len(m.pending)-1]
			}
			m.pc++
		case opWaitAllPend:
			blocked := false
			for m.head < len(m.pending) {
				c := m.pending[m.head]
				if c != nil {
					if !c.Done() {
						m.block(p, c)
						blocked = true
						break
					}
					m.pending[m.head] = nil
					c.release()
				}
				m.popPending()
			}
			if blocked {
				return false
			}
			m.pc++
		case opAwait:
			// Advance before arriving: being woken IS the release, so the
			// machine must not re-arrive on resume.
			m.pc++
			if !op.bar.Arrive(p) {
				return false
			}
		}
	}
}

// dispose routes a freshly posted comm per the op's register disposition.
func (m *progMachine) dispose(c *Comm, reg int8) {
	switch reg {
	case regDiscard:
	case regPend:
		c.retain()
		m.pending = append(m.pending, c)
	default:
		c.retain()
		m.regs[reg] = c
	}
}

// block registers the machine's process as a waiter on c.
func (m *progMachine) block(p *Proc, c *Comm) {
	if c.waiters == nil {
		c.waiters = c.waiterBuf[:0]
	}
	c.waiters = append(c.waiters, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "wait", comm: c}
}

// popPending advances past the consumed head, recycling the whole buffer
// once it empties.
func (m *progMachine) popPending() {
	m.head++
	if m.head == len(m.pending) {
		m.pending = m.pending[:0]
		m.head = 0
	}
}
