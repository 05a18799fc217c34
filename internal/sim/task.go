package sim

import "fmt"

// Step is what a continuation step function returns: whether the task has
// finished, or blocked on a primitive and must be resumed when the
// corresponding wake event fires.
type Step uint8

// Step values.
const (
	// Blocked: the task called a blocking primitive; the engine re-runs the
	// step function when the wake event fires.
	Blocked Step = iota
	// Done: the task has finished.
	Done
)

// Task is the continuation-style face of a simulated process: instead of a
// goroutine parked inside blocking calls, the process is a step function the
// engine invokes inline from the event loop. Blocking primitives return
// immediately after arming their wake event; the step function propagates
// Blocked upward and is re-entered on wake. No resume/yield channels, no
// goroutine stack per rank — the reason the continuation kernel scales to
// thousands of ranks where the goroutine scheduler thrashes.
type Task struct {
	p *Proc
}

// Proc returns the underlying process (shared identity with the goroutine
// API: name, host, deadlock reporting).
func (t *Task) Proc() *Proc { return t.p }

// Now returns the current simulated time.
func (t *Task) Now() float64 { return t.p.engine.now }

// Engine returns the engine this task runs on.
func (t *Task) Engine() *Engine { return t.p.engine }

// Fail aborts the whole simulation with err, exactly like Proc.Fail: the
// step unwinds immediately and Engine.Run returns err with its chain intact.
func (t *Task) Fail(err error) {
	if err == nil {
		t.p.faultf("Fail(nil)")
	}
	panic(simFault{err})
}

// SpawnTask creates a continuation-style process: step is invoked from the
// event loop until it returns Done; when it returns Blocked (after calling a
// blocking primitive) it is re-invoked on wake. External step functions may
// retain *Comm values indefinitely, so spawning one disables the engine's
// comm recycling (SpawnProg machines, which provably release their
// references, keep it).
func (e *Engine) SpawnTask(name string, host *Host, step func(*Task) Step) *Proc {
	e.pooled = false
	return e.spawnStep(name, host, step)
}

func (e *Engine) spawnStep(name string, host *Host, step func(*Task) Step) *Proc {
	if host == nil {
		panic("sim: SpawnTask with nil host")
	}
	if step == nil {
		panic("sim: SpawnTask with nil step")
	}
	e.procSeq++
	p := &Proc{
		Name:   name,
		Host:   host,
		id:     e.procSeq,
		engine: e,
		state:  procRunnable,
		step:   step,
	}
	p.task.p = p
	e.procs = append(e.procs, p)
	e.runq.push(p)
	e.nalive++
	return p
}

// stepTask runs one step of a continuation process, mirroring the goroutine
// wrapper's lifecycle handling (fault conversion, completion accounting).
func (e *Engine) stepTask(p *Proc) {
	s, failed := runStep(e, p)
	if s == Done || failed {
		p.state = procDone
		p.blockedOn = blockInfo{}
		e.nalive--
		e.current = nil
		return
	}
	if p.state != procBlocked {
		// A step returned Blocked without arming a wake event; nothing would
		// ever resume it. Surface the bug instead of deadlocking silently.
		e.fail(fmt.Errorf("sim: process %s: step returned Blocked without blocking", p.Name))
		p.state = procDone
		e.nalive--
	}
	e.current = nil
}

// runStep invokes the step function under the same recover discipline as the
// goroutine wrapper: simFault panics become the carried error, anything else
// becomes a process-panicked error — bit-identical messages in both modes.
func runStep(e *Engine, p *Proc) (s Step, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(simFault); ok {
				e.fail(f.err)
			} else {
				e.fail(fmt.Errorf("sim: process %s panicked: %v", p.Name, r))
			}
			failed = true
		}
	}()
	return p.step(&p.task), false
}

// Sleep arms a wake timer d simulated seconds from now and blocks the task.
// It always returns Blocked, so step functions can `return t.Sleep(d)`.
func (t *Task) Sleep(d float64) Step {
	p := t.p
	if d < 0 {
		p.faultf("Sleep(%g): negative duration", d)
	}
	e := p.engine
	e.afterWake(d, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "sleep", amt: d}
	return Blocked
}

// Wait registers the task as a waiter on c unless it is already done. It
// returns true when c is done (keep executing) and false when the task must
// return Blocked; on wake, re-invoke Wait — like the goroutine WaitComm
// loop, the waiter re-registers until the comm completes.
func (t *Task) Wait(c *Comm) bool {
	p := t.p
	if c == nil {
		p.faultf("wait on nil comm")
	}
	if c.engine != p.engine {
		p.faultf("wait on comm from another engine")
	}
	if c.Done() {
		return true
	}
	if c.waiters == nil {
		c.waiters = c.waiterBuf[:0]
	}
	c.waiters = append(c.waiters, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "wait", comm: c}
	return false
}

// PutAsync posts a send on a named mailbox; see Proc.PutAsync.
func (t *Task) PutAsync(mb string, size float64) *Comm {
	return t.PutAsyncBox(t.p.engine.namedBox(mb).box, size)
}

// PutDetached posts a fire-and-forget send on a named mailbox.
func (t *Task) PutDetached(mb string, size float64, payload any) *Comm {
	return t.PutDetachedBox(t.p.engine.namedBox(mb).box, size, payload)
}

// GetAsync posts a receive on a named mailbox.
func (t *Task) GetAsync(mb string) *Comm {
	return t.GetAsyncBox(t.p.engine.namedBox(mb).box)
}

// PutAsyncBox posts a send on a pair mailbox.
func (t *Task) PutAsyncBox(mb Mbox, size float64) *Comm {
	p := t.p
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.box(mb), p, size, nil, false)
}

// PutDetachedBox posts a fire-and-forget send on a pair mailbox.
func (t *Task) PutDetachedBox(mb Mbox, size float64, payload any) *Comm {
	p := t.p
	if size < 0 {
		p.faultf("send of negative size %g", size)
	}
	e := p.engine
	return e.postSend(e.box(mb), p, size, payload, true)
}

// GetAsyncBox posts a receive on a pair mailbox.
func (t *Task) GetAsyncBox(mb Mbox) *Comm {
	p := t.p
	e := p.engine
	return e.postRecv(e.box(mb), p)
}

// Arrive is the continuation-style Barrier.Await: it returns true when the
// task is the last arriver (barrier passed; keep executing) and false when
// the task must return Blocked. Unlike Await, the caller must not re-invoke
// Arrive on wake — being woken IS the barrier release.
func (b *Barrier) Arrive(t *Task) bool {
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		for _, w := range b.waiting {
			b.engine.wake(w)
		}
		b.waiting = b.waiting[:0]
		return true
	}
	p := t.p
	b.waiting = append(b.waiting, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "barrier", n: b.count, m: b.n}
	return false
}
