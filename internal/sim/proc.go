package sim

import "fmt"

type procState int

const (
	procRunnable procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process: a continuation machine interpreting the
// micro-op programs of its Feed (see Prog). The engine steps it inline from
// the event loop until it blocks, and steps it again when the wake event
// fires, so processes need no goroutines, stacks or synchronization.
type Proc struct {
	// Name identifies the process in errors and deadlock reports.
	Name string
	// Host is the resource the process computes on.
	Host *Host

	engine    *Engine
	state     procState
	blockedOn blockInfo
	m         progMachine
}

// blockInfo describes why a process is blocked. It holds the raw operands
// and formats only when a deadlock report is actually produced: rendering
// the reason eagerly cost two allocations on every blocking micro-op, which
// dominated large replays.
type blockInfo struct {
	what string  // "sleep", "wait", "waitany", "barrier"
	comm *Comm   // wait only
	amt  float64 // sleep duration
	n, m int     // barrier arrived/party counts; waitany comm count
}

func (b blockInfo) String() string {
	switch b.what {
	case "sleep":
		return fmt.Sprintf("sleep(%g)", b.amt)
	case "wait":
		return fmt.Sprintf("wait(comm %d on %q)", b.comm.ID, b.comm.Mailbox())
	case "waitany":
		return fmt.Sprintf("waitany(%d comms)", b.n)
	case "barrier":
		return fmt.Sprintf("barrier(%d/%d)", b.n, b.m)
	}
	return b.what
}

// simFault carries a simulated-program failure through panic/recover from
// the faulting micro-op to Engine.step, which turns it into the engine error.
// Simulated program bugs (negative compute amounts, sends of negative
// size, ...) abort the whole simulation: a replay with a corrupted trace
// must not silently produce a time.
type simFault struct{ err error }

func (p *Proc) faultf(format string, args ...any) {
	panic(simFault{fmt.Errorf("sim: process %s: "+format, append([]any{p.Name}, args...)...)})
}

// resume steps p until it blocks or finishes. Each resume counts one
// context switch.
func (e *Engine) resume(p *Proc) {
	if p.state != procRunnable {
		return
	}
	p.state = procRunning
	e.stats.ContextSwitches++
	if e.step(p) {
		p.state = procDone
		p.blockedOn = blockInfo{}
		e.nalive--
	}
}

// step runs p's machine and reports whether the process is finished. A
// feed error, a micro-op fault, or any other panic ends the process and
// becomes the engine error: faults and feed errors keep their chain intact,
// anything else is reported as a process panic.
func (e *Engine) step(p *Proc) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(simFault); ok {
				e.fail(f.err)
			} else {
				e.fail(fmt.Errorf("sim: process %s panicked: %v", p.Name, r))
			}
			done = true
		}
	}()
	return p.m.step(p)
}
