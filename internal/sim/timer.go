package sim

// timer is a pending wake-up in simulated time, stored by value in the
// engine's heap. Ties on deadline are broken by insertion sequence so runs
// are deterministic. Exactly one of proc and comm is set: wake this
// process, or move this comm out of its latency stage.
type timer struct {
	deadline float64
	seq      int64
	proc     *Proc
	comm     *Comm
}

// earlier returns 1 if t comes before u in the heap order (deadline, seq),
// a total order since seq is unique, and 0 otherwise. It has no branches:
// which of two sibling timers is due first is a coin toss that a branch
// predictor cannot learn, so a sift picks the smaller child arithmetically.
func (t *timer) earlier(u *timer) int {
	return b2i(t.deadline < u.deadline) | b2i(t.deadline == u.deadline)&b2i(t.seq < u.seq)
}

// b2i compiles to a flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// timerHeap is a binary min-heap of timers in (deadline, seq) order. Sifts
// move a hole rather than swapping, so each level costs one copy.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.earlier(&s[p]) == 0 {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = t
	*h = s
}

// pop removes and returns the earliest timer; the heap must not be empty.
func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = timer{} // drop the pointers held by the vacated slot
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += s[c+1].earlier(&s[c])
		}
		if s[c].earlier(&last) == 0 {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// afterWake schedules p to be woken d simulated seconds from now.
func (e *Engine) afterWake(d float64, p *Proc) {
	e.timerSeq++
	e.timers.push(timer{deadline: e.now + d, seq: e.timerSeq, proc: p})
}

// afterFlow schedules c's transition out of its latency stage d simulated
// seconds from now.
func (e *Engine) afterFlow(d float64, c *Comm) {
	e.timerSeq++
	e.timers.push(timer{deadline: e.now + d, seq: e.timerSeq, comm: c})
}

// dispatch runs a fired timer's action.
func (e *Engine) dispatch(t timer) {
	if t.proc != nil {
		e.wake(t.proc)
	} else {
		e.flowStage(t.comm)
	}
}
