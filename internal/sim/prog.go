package sim

// A Prog is a short straight-line program of kernel micro-ops — the
// compilation target for trace actions. Replay backends lower each action
// (compute, the eager/rendezvous protocol stages of a send, a whole
// collective schedule) into ops; the engine interprets them inline from the
// event loop via SpawnProg. Because the ops are exactly the calls the
// goroutine primitives would have made, in the same order, the schedule —
// and hence every simulated time and stat — is bit-identical between modes.

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
// worth of ops per Feed call; the builder methods mirror the Proc
// primitives they stand for.
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

// Exec compiles Proc.Execute(instr) (compute at host speed).
func (p *Prog) Exec(instr float64) {
	p.ops = append(p.ops, progOp{kind: opExec, amt: instr})
}

// Sleep compiles Proc.Sleep(d).
func (p *Prog) Sleep(d float64) {
	p.ops = append(p.ops, progOp{kind: opSleep, amt: d})
}

// Put compiles Proc.PutAsync into register r (pair with WaitReg).
func (p *Prog) Put(mb Mbox, bytes float64, r int) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: p.reg(r), mb: mb, amt: bytes})
}

// PutPending compiles Proc.PutAsync onto the pending FIFO (Isend).
func (p *Prog) PutPending(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: regPend, mb: mb, amt: bytes})
}

// PutDiscard compiles a fire-and-forget Proc.PutAsync (the MSG prototype's
// small-message send: asynchronous, never waited on).
func (p *Prog) PutDiscard(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPut, reg: regDiscard, mb: mb, amt: bytes})
}

// PutDetached compiles Proc.PutDetached (the eager protocol's sender side).
func (p *Prog) PutDetached(mb Mbox, bytes float64) {
	p.ops = append(p.ops, progOp{kind: opPutDetached, reg: regDiscard, mb: mb, amt: bytes})
}

// Get compiles Proc.GetAsync into register r (pair with WaitReg).
func (p *Prog) Get(mb Mbox, r int) {
	p.ops = append(p.ops, progOp{kind: opGet, reg: p.reg(r), mb: mb})
}

// GetPending compiles Proc.GetAsync onto the pending FIFO (Irecv).
func (p *Prog) GetPending(mb Mbox) {
	p.ops = append(p.ops, progOp{kind: opGet, reg: regPend, mb: mb})
}

// PushPendingDone records an already-completed nonblocking operation (an
// eager Isend: the request is born done) so trace wait/waitall stay
// FIFO-aligned with the operations that produced them.
func (p *Prog) PushPendingDone() {
	p.ops = append(p.ops, progOp{kind: opPushDone})
}

// WaitReg compiles Proc.WaitComm on register r.
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

// Await compiles Barrier.Await.
func (p *Prog) Await(b *Barrier) {
	p.ops = append(p.ops, progOp{kind: opAwait, bar: b})
}

// Feed refills prog with the micro-ops of the next trace action. It returns
// false when the rank's stream is exhausted (the task finishes) and a
// non-nil error to abort the whole simulation with that error (equivalent to
// Proc.Fail — the chain survives intact). A call that appends no ops (e.g.
// an init/finalize marker) is fine; the machine just asks again.
type Feed func(prog *Prog) (more bool, err error)

// SpawnProg creates a continuation process interpreting the micro-op
// programs produced by feed. Unlike SpawnTask, the machine provably releases
// every Comm it references, so comm recycling stays enabled.
func (e *Engine) SpawnProg(name string, host *Host, feed Feed) *Proc {
	if feed == nil {
		panic("sim: SpawnProg with nil feed")
	}
	m := &progMachine{feed: feed}
	return e.spawnStep(name, host, m.step)
}

// progMachine interprets a rank's micro-op stream: it executes ops until one
// blocks, refilling the program from feed when all ops are consumed. pc is
// only advanced past an op once it no longer needs re-examination, so a
// blocked wait re-checks its comm on every wake — the same re-registration
// the goroutine WaitComm loop performs.
type progMachine struct {
	prog    Prog
	pc      int
	regs    []*Comm
	pending []*Comm // cross-action nonblocking ops, FIFO; nil = born done
	head    int     // consumed prefix of pending
	feed    Feed
}

func (m *progMachine) step(t *Task) Step {
	p := t.p
	e := p.engine
	for {
		if m.pc >= len(m.prog.ops) {
			// Program drained: this is exactly the moment the goroutine
			// driver would read the next trace action, so lowering here
			// keeps action counting and compile-time panics at identical
			// points in simulated time.
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
				panic(simFault{err})
			}
			if !more {
				return Done
			}
			if n := m.prog.nreg; n > len(m.regs) {
				m.regs = append(m.regs, make([]*Comm, n-len(m.regs))...)
			}
			continue
		}
		op := &m.prog.ops[m.pc]
		switch op.kind {
		case opExec:
			// Mirrors Proc.ExecuteAtRate at the host's calibrated speed,
			// faults included.
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
			return Blocked
		case opSleep:
			if op.amt < 0 {
				p.faultf("Sleep(%g): negative duration", op.amt)
			}
			m.pc++
			e.afterWake(op.amt, p)
			p.state = procBlocked
			p.blockedOn = blockInfo{what: "sleep", amt: op.amt}
			return Blocked
		case opPut, opPutDetached:
			if op.amt < 0 {
				p.faultf("send of negative size %g", op.amt)
			}
			c := e.postSend(e.box(op.mb), p, op.amt, nil, op.kind == opPutDetached)
			m.dispose(c, op.reg)
			m.pc++
		case opGet:
			c := e.postRecv(e.box(op.mb), p)
			m.dispose(c, op.reg)
			m.pc++
		case opPushDone:
			m.pending = append(m.pending, nil)
			m.pc++
		case opWaitReg:
			c := m.regs[op.reg]
			if !c.Done() {
				m.block(p, c)
				return Blocked
			}
			m.regs[op.reg] = nil
			c.release()
			m.pc++
		case opWaitPend:
			c := m.pending[m.head]
			if c != nil {
				if !c.Done() {
					m.block(p, c)
					return Blocked
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
			// this process out of whatever it blocks on next. Mirrors the
			// deregistration pass in Proc.WaitAnyComm exactly.
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
				return Blocked
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
				return Blocked
			}
			m.pc++
		case opAwait:
			// Advance before arriving: being woken IS the release, so the
			// machine must not re-arrive on resume.
			m.pc++
			if !op.bar.Arrive(t) {
				return Blocked
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

// block registers the machine's process as a waiter on c, exactly like one
// iteration of the goroutine WaitComm loop.
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
