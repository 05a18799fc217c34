package sim

import "fmt"

// Barrier is a reusable n-party synchronization point for simulated
// processes. The MSG-style replay backend uses it to implement monolithic
// collective models: every rank blocks until the last one arrives, then all
// resume (and typically sleep the modelled collective duration).
type Barrier struct {
	engine  *Engine
	n       int
	count   int
	waiting []*Proc
}

// NewBarrier creates a barrier for n parties.
func (e *Engine) NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewBarrier(%d): need at least one party", n))
	}
	return &Barrier{engine: e, n: n}
}

// Arrive registers p at the barrier. It returns true when p is the last
// arriver (the barrier is passed and every waiter is woken) and false when
// p is now blocked. Being woken is the release: a woken process must not
// arrive again for the same round. The barrier is reusable.
func (b *Barrier) Arrive(p *Proc) bool {
	b.count++
	if b.count == b.n {
		b.count = 0
		for _, w := range b.waiting {
			b.engine.wake(w)
		}
		b.waiting = b.waiting[:0]
		return true
	}
	b.waiting = append(b.waiting, p)
	p.state = procBlocked
	p.blockedOn = blockInfo{what: "barrier", n: b.count, m: b.n}
	return false
}
