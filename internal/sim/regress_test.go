package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestProcRingFIFOAndRelease exercises the run-queue ring buffer through
// growth and wraparound, and checks that popped slots are nilled so
// finished processes do not stay reachable through the backing array.
func TestProcRingFIFOAndRelease(t *testing.T) {
	var q procRing
	mk := func(i int) *Proc { return &Proc{Name: fmt.Sprintf("p%d", i)} }
	var want []string
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			p := mk(next)
			want = append(want, p.Name)
			q.push(p)
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			p := q.pop()
			if p.Name != want[0] {
				t.Fatalf("pop = %s, want %s (FIFO violated)", p.Name, want[0])
			}
			want = want[1:]
		}
	}
	push(10)
	pop(7)
	push(30) // forces growth with a wrapped head
	pop(q.len())
	if q.len() != 0 {
		t.Fatalf("ring not empty: %d", q.len())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds %s after pop: popped entries must be released", i, p.Name)
		}
	}
	push(3)
	pop(3)
}

// TestStalledFlowDeadlockDiagnostic pins the zero-rate-flow fix: a flow
// frozen at rate 0 must be visible in the deadlock report rather than the
// simulation silently reporting only the blocked processes.
//
// A zero allocation is unreachable through well-formed platforms (a
// progressive-filling level is always positive when bandwidths are), so the
// stall is injected white-box mid-flight, as a floating-point corner would.
func TestStalledFlowDeadlockDiagnostic(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e6, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 1e6) }))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb) }))
	e.SpawnProg("freeze", hs[0], script(
		func(p *Prog) { p.Sleep(0.1) },
		func(*Prog) { e.applyRate(e.active[0], 0) },
	))
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Stalled) != 1 {
		t.Fatalf("Stalled = %v, want exactly the frozen flow", d.Stalled)
	}
	if !strings.Contains(d.Stalled[0], "rate 0") || !strings.Contains(err.Error(), "stalled flow") {
		t.Fatalf("diagnostic does not describe the stalled flow: %v", err)
	}
	if len(d.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want both endpoints", d.Blocked)
	}
	approx(t, d.Time, 0.1, "deadlock time")
}

// TestStalledFlowReexaminedOnRecompute checks the other half of the fix: a
// stalled flow is re-fed to the solver on the next recompute — even one
// triggered in a different connected component — so freed or restored
// capacity revives it instead of leaving it invisible forever.
func TestStalledFlowReexaminedOnRecompute(t *testing.T) {
	hs := newTestHosts(4, 1e9)
	l1 := &Link{Name: "l1", Bandwidth: 1e6}
	l2 := &Link{Name: "l2", Bandwidth: 1e6}
	r := tableRouter{
		{hs[0], hs[1]}: {Links: []*Link{l1}},
		{hs[2], hs[3]}: {Links: []*Link{l2}},
	}
	e := NewEngine(r)
	mb := boxes(e, 2)
	var sendEnd float64
	e.SpawnProg("sA", hs[0], script(
		func(p *Prog) { put(p, mb[0], 1e6) },
		func(*Prog) { sendEnd = e.Now() },
	))
	e.SpawnProg("rA", hs[1], script(func(p *Prog) { get(p, mb[0]) }))
	// Freeze A's flow at t=0.1 with 9e5 bytes left.
	e.SpawnProg("freeze", hs[0], script(
		func(p *Prog) { p.Sleep(0.1) },
		func(*Prog) { e.applyRate(e.active[0], 0) },
	))
	// An unrelated transfer on a disjoint link arrives at t=0.2; the
	// recompute it triggers must also re-solve A's component.
	e.SpawnProg("sB", hs[2], script(func(p *Prog) {
		p.Sleep(0.2)
		put(p, mb[1], 1e5)
	}))
	e.SpawnProg("rB", hs[3], script(func(p *Prog) { get(p, mb[1]) }))
	if err := e.Run(); err != nil {
		t.Fatalf("expected recovery, got %v", err)
	}
	// 1e5 bytes done by 0.1, stalled until 0.2, then 9e5 bytes at 1e6 B/s.
	approx(t, sendEnd, 1.1, "stalled transfer resumes after recompute")
}

// TestDegenerateLinkSparesHealthyFlows pins the solver's behaviour on a
// link with negative capacity, which startComm rejects but the solver must
// still survive: filling terminates, matches the reference bit for bit, and
// a flow crossing only a healthy link is not dragged down to the degenerate
// link's level — it receives at least that link's full share.
func TestDegenerateLinkSparesHealthyFlows(t *testing.T) {
	bad := &Link{Name: "bad", Bandwidth: -1} // degenerate by construction
	good := &Link{Name: "good", Bandwidth: 10}
	e := NewEngine(pairRouter{good})
	fA := &flow{comm: mkComm(1), links: []*Link{bad}, rem: 1}
	fC := &flow{comm: mkComm(1), links: []*Link{bad, good}, rem: 1}
	fB := &flow{comm: mkComm(1), links: []*Link{good}, rem: 1}
	fs := []*flow{fA, fC, fB}
	for _, f := range fs {
		e.addFlow(f)
	}
	e.recomputeShares() // must terminate
	for i, want := range referenceShares(fs) {
		if fs[i].rate != want {
			t.Fatalf("flow %d: rate %v, want %v (reference)", i, fs[i].rate, want)
		}
	}
	if fB.rate < 10 {
		t.Fatalf("flow on the healthy link got %v, want at least its link's full share (10)", fB.rate)
	}
}

// TestCapBoundSaturationCorner exercises a cap-heavy allocation where
// cap-bounded flows consume most of a link: the remaining flow must receive
// exactly the leftover capacity, never rate 0, and the allocation must stay
// bit-identical to the from-scratch reference.
func TestCapBoundSaturationCorner(t *testing.T) {
	l := &Link{Name: "l", Bandwidth: 10}
	fs := []*flow{
		{comm: mkComm(1), links: []*Link{l}, cap: 2, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, cap: 2.5, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, cap: 3, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, rem: 1},
	}
	rates := solve(fs)
	want := referenceShares(fs)
	for i := range fs {
		if rates[i] != want[i] {
			t.Fatalf("rates[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
	if rates[3] <= 0 {
		t.Fatalf("uncapped flow starved: rate %v", rates[3])
	}
	// caps bind (2, 2.5) or not (3 > fair share of the leftover).
	approx(t, rates[0], 2, "cap-bound flow 0")
	approx(t, rates[1], 2.5, "cap-bound flow 1")
	approx(t, rates[2], 2.75, "flow 2 shares the leftover")
	approx(t, rates[3], 2.75, "flow 3 shares the leftover")
}
