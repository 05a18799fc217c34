package sim

import (
	"errors"
	"math"
	"testing"
)

// pairRouter routes every pair over a fixed shared link; same-host routes
// are empty (infinitely fast after zero latency).
type pairRouter struct{ link *Link }

func (r pairRouter) Route(buf []*Link, src, dst *Host) Route {
	if src == dst {
		return Route{Links: buf}
	}
	return Route{Links: append(buf, r.link), Latency: r.link.Latency}
}

// tableRouter routes by explicit (src,dst) table.
type tableRouter map[[2]*Host]Route

func (r tableRouter) Route(buf []*Link, src, dst *Host) Route {
	rt := r[[2]*Host{src, dst}]
	return Route{Links: append(buf, rt.Links...), Latency: rt.Latency}
}

func newTestHosts(n int, speed float64) []*Host {
	hs := make([]*Host, n)
	for i := range hs {
		hs[i] = &Host{Name: string(rune('a' + i)), Speed: speed}
	}
	return hs
}

const tol = 1e-9

func approx(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// script returns a Feed that runs one closure per call and then finishes.
// A closure that emits no ops may record e.Now(): the machine feeds again
// at once, so it reads the time the previous closure's ops completed.
func script(steps ...func(p *Prog)) Feed {
	i := 0
	return func(p *Prog) (bool, error) {
		if i == len(steps) {
			return false, nil
		}
		steps[i](p)
		i++
		return true, nil
	}
}

// put and get emit a blocking send and a blocking receive on mb.
func put(p *Prog, mb Mbox, bytes float64) { p.Put(mb, bytes, 0); p.WaitReg(0) }
func get(p *Prog, mb Mbox)                { p.Get(mb, 1); p.WaitReg(1) }

// boxes returns n unpinned mailboxes of a fresh pair space.
func boxes(e *Engine, n int) []Mbox {
	s := e.NewPairSpace("t", nil)
	bs := make([]Mbox, n)
	for i := range bs {
		bs[i] = s.Box(i, i)
	}
	return bs
}

func TestSleepAdvancesClock(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-4}
	e := NewEngine(pairRouter{link})
	h := &Host{Name: "h", Speed: 1e9}
	var mid, end float64
	e.SpawnProg("p", h, script(
		func(p *Prog) { p.Sleep(1.5) },
		func(*Prog) { mid = e.Now() },
		func(p *Prog) { p.Sleep(0.25) },
		func(*Prog) { end = e.Now() },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, mid, 1.5, "first wake")
	approx(t, end, 1.75, "end time")
	approx(t, e.Now(), 1.75, "engine time")
	// One context switch per resume: the start and one per wake.
	if cs := e.Stats().ContextSwitches; cs != 3 {
		t.Fatalf("context switches = %d, want 3", cs)
	}
}

func TestExecuteUsesHostSpeed(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1, Latency: 0}})
	h := &Host{Name: "h", Speed: 2e9}
	e.SpawnProg("p", h, script(func(p *Prog) { p.Exec(4e9) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, e.Now(), 2.0, "execute time")
}

func TestExecuteZeroAmountIsFree(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1, Latency: 0}})
	h := &Host{Name: "h", Speed: 1e9}
	e.SpawnProg("p", h, script(func(p *Prog) { p.Exec(0) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, e.Now(), 0, "time")
}

func TestPingTime(t *testing.T) {
	// One message of 1e6 B over a 1e8 B/s link with 1 ms latency:
	// t = 0.001 + 0.01 = 0.011.
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 1e-3}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("sender", hs[0], script(func(p *Prog) { put(p, mb, 1e6) }))
	var recvEnd float64
	e.SpawnProg("receiver", hs[1], script(
		func(p *Prog) { get(p, mb) },
		func(*Prog) { recvEnd = e.Now() },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, recvEnd, 0.011, "receive end")
}

func TestBlockingSendWaitsForReceiver(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	var sendEnd float64
	e.SpawnProg("sender", hs[0], script(
		func(p *Prog) { put(p, mb, 1e6) }, // 0.01 s transfer
		func(*Prog) { sendEnd = e.Now() },
	))
	e.SpawnProg("receiver", hs[1], script(func(p *Prog) {
		p.Sleep(5) // receiver shows up late
		get(p, mb)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, sendEnd, 5.01, "blocking send completes only after match+transfer")
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Two simultaneous 1e6 B transfers over one 1e8 B/s link: each gets
	// 5e7 B/s, both complete at 0.02 s (zero latency).
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(4, 1e9)
	mb := boxes(e, 2)
	ends := make([]float64, 2)
	e.SpawnProg("s0", hs[0], script(func(p *Prog) { put(p, mb[0], 1e6) }, func(*Prog) { ends[0] = e.Now() }))
	e.SpawnProg("s1", hs[1], script(func(p *Prog) { put(p, mb[1], 1e6) }, func(*Prog) { ends[1] = e.Now() }))
	e.SpawnProg("r0", hs[2], script(func(p *Prog) { get(p, mb[0]) }))
	e.SpawnProg("r1", hs[3], script(func(p *Prog) { get(p, mb[1]) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, ends[0], 0.02, "flow 0 end")
	approx(t, ends[1], 0.02, "flow 1 end")
}

func TestMaxMinTwoBottlenecks(t *testing.T) {
	// Flow A crosses l1 (cap 10); flow B crosses l1 and l2 (cap 4).
	// Max-min: B limited by l2 at 4, A gets the rest of l1: 6.
	hs := newTestHosts(4, 1e9)
	l1 := &Link{Name: "l1", Bandwidth: 10, Latency: 0}
	l2 := &Link{Name: "l2", Bandwidth: 4, Latency: 0, ID: 1}
	r := tableRouter{
		{hs[0], hs[1]}: {Links: []*Link{l1}},
		{hs[2], hs[3]}: {Links: []*Link{l1, l2}},
	}
	e := NewEngine(r)
	mb := boxes(e, 2)
	endA, endB := 0.0, 0.0
	e.SpawnProg("sA", hs[0], script(func(p *Prog) { put(p, mb[0], 60) }, func(*Prog) { endA = e.Now() }))
	e.SpawnProg("sB", hs[2], script(func(p *Prog) { put(p, mb[1], 60) }, func(*Prog) { endB = e.Now() }))
	e.SpawnProg("rA", hs[1], script(func(p *Prog) { get(p, mb[0]) }))
	e.SpawnProg("rB", hs[3], script(func(p *Prog) { get(p, mb[1]) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// B finishes at 60/4 = 15. A runs at 6 until B's share frees... but B
	// finishes after A: A transfers 60 B at 6 B/s = 10 s < 15, so A ends at
	// 10 and B then speeds up to 4 (still its cap by l2). B: 40 B done at
	// t=10, remaining 20 at 4 B/s -> ends 15.
	approx(t, endA, 10, "flow A end")
	approx(t, endB, 15, "flow B end")
}

type capModel struct{ cap float64 }

func (m capModel) Effective(route Route, size float64) (float64, float64) {
	return route.Latency, m.cap
}

func TestRateCapLimitsFlow(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 0}
	e := NewEngine(pairRouter{link}, WithNetworkModel(capModel{cap: 1e6}))
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 1e6) }))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, e.Now(), 1.0, "capped transfer time")
}

func TestDetachedSendWithPinnedMailboxStartsEarly(t *testing.T) {
	// With the mailbox pinned, a detached send starts moving immediately;
	// a receive posted later than the transfer duration returns at once.
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 1e-3}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := e.NewPairSpace("t", hs).Box(0, 1) // pinned to hs[1]
	var sendEnd, recvEnd float64
	e.SpawnProg("s", hs[0], script(
		func(p *Prog) { p.PutDetached(mb, 1e6) }, // in flight: done at 0.011
		func(*Prog) { sendEnd = e.Now() },
	))
	e.SpawnProg("r", hs[1], script(
		func(p *Prog) {
			p.Sleep(1)
			get(p, mb)
		},
		func(*Prog) { recvEnd = e.Now() },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, sendEnd, 0, "detached send returns immediately")
	approx(t, recvEnd, 1, "late receive finds buffered data")
}

func TestDetachedSendReceiverWaitsForArrival(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 1e-3}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := e.NewPairSpace("t", hs).Box(0, 1) // pinned to hs[1]
	var recvEnd float64
	e.SpawnProg("s", hs[0], script(func(p *Prog) {
		p.Sleep(0.5)
		p.PutDetached(mb, 1e6)
	}))
	e.SpawnProg("r", hs[1], script(
		func(p *Prog) { get(p, mb) }, // posted first; data arrives at 0.5+0.011
		func(*Prog) { recvEnd = e.Now() },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, recvEnd, 0.511, "receive completes at arrival")
}

func TestDetachedSendUnpinnedWaitsForMatch(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 1e-3}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	var recvEnd float64
	e.SpawnProg("s", hs[0], script(func(p *Prog) { p.PutDetached(mb, 1e6) }))
	e.SpawnProg("r", hs[1], script(
		func(p *Prog) {
			p.Sleep(1)
			get(p, mb) // transfer starts only now (unpinned mailbox)
		},
		func(*Prog) { recvEnd = e.Now() },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, recvEnd, 1.011, "transfer starts at match")
}

func TestZeroSizeCommCompletesAfterLatency(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 2e-3}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 0) }))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, e.Now(), 2e-3, "zero-size comm time")
}

func TestDeadlockDetected(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e8, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(1, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("r", hs[0], script(func(p *Prog) { get(p, mb) }))
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 process", d.Blocked)
	}
}

func TestNegativeComputeFaults(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1, Latency: 0}})
	hs := newTestHosts(1, 1e9)
	e.SpawnProg("p", hs[0], script(func(p *Prog) { p.Exec(-1) }))
	if err := e.Run(); err == nil {
		t.Fatal("expected error for negative compute")
	}
}

func TestPanicInBodyBecomesError(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1, Latency: 0}})
	hs := newTestHosts(1, 1e9)
	e.SpawnProg("p", hs[0], script(func(*Prog) { panic("boom") }))
	err := e.Run()
	if err == nil || err.Error() != "sim: process p panicked: boom" {
		t.Fatalf("err = %v, want the process panic report", err)
	}
}

func TestZeroBandwidthLinkIsError(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 0, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 10) }))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb) }))
	if err := e.Run(); err == nil {
		t.Fatal("expected error for zero-bandwidth link")
	}
}

// TestLinkIDsIdentifyLinks checks the contract of the engine's per-link
// state, which is indexed by Link.ID: two distinct links sharing an ID, on
// one route or on two, and a link with a negative ID make Run fail naming
// them instead of merging or misplacing their flows.
func TestLinkIDsIdentifyLinks(t *testing.T) {
	hs := newTestHosts(4, 1e9)
	run := func(r Router) error {
		e := NewEngine(r)
		mb := boxes(e, 2)
		e.SpawnProg("s0", hs[0], script(func(p *Prog) { put(p, mb[0], 10) }))
		e.SpawnProg("r0", hs[1], script(func(p *Prog) { get(p, mb[0]) }))
		e.SpawnProg("s1", hs[2], script(func(p *Prog) { p.Sleep(1); put(p, mb[1], 10) }))
		e.SpawnProg("r1", hs[3], script(func(p *Prog) { get(p, mb[1]) }))
		return e.Run()
	}
	a := &Link{Name: "a", Bandwidth: 1e6, ID: 3}
	b := &Link{Name: "b", Bandwidth: 1e6, ID: 3}
	neg := &Link{Name: "neg", Bandwidth: 1e6, ID: -1}
	for _, tc := range []struct {
		name  string
		route [2][]*Link
		want  string
	}{
		{"two routes", [2][]*Link{{a}, {b}}, "sim: comm 2 crosses links a and b, which share id 3"},
		{"one route", [2][]*Link{{a, b}, {a}}, "sim: comm 1 crosses links a and b, which share id 3"},
		{"negative", [2][]*Link{{a}, {neg}}, "sim: comm 2 crosses link neg with negative id -1"},
	} {
		r := tableRouter{
			{hs[0], hs[1]}: {Links: tc.route[0]},
			{hs[2], hs[3]}: {Links: tc.route[1]},
		}
		if err := run(r); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Distinct IDs run, whatever their order and gaps.
	c := &Link{Name: "c", Bandwidth: 1e6, ID: 0}
	if err := run(tableRouter{{hs[0], hs[1]}: {Links: []*Link{a, c}}, {hs[2], hs[3]}: {Links: []*Link{c}}}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllAndTest(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e6, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 2)
	var s *Proc
	var pendingBefore, pendingAfter int
	s = e.SpawnProg("s", hs[0], script(
		func(p *Prog) {
			p.PutPending(mb[0], 1e6)
			p.PutPending(mb[1], 1e6)
		},
		func(*Prog) { pendingBefore = len(s.m.pending) - s.m.head }, // nothing matched yet
		func(p *Prog) { p.WaitAllPending() },
		func(*Prog) { pendingAfter = len(s.m.pending) - s.m.head },
	))
	e.SpawnProg("r", hs[1], script(func(p *Prog) {
		get(p, mb[0])
		get(p, mb[1])
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pendingBefore != 2 {
		t.Errorf("%d sends outstanding before the wait, want 2", pendingBefore)
	}
	if pendingAfter != 0 {
		t.Errorf("%d sends outstanding after the waitall, want 0", pendingAfter)
	}
	// Sequential matching: both 1e6 B flows share sequentially-ish; total
	// bytes 2e6 over 1e6 B/s => 2 s regardless of interleaving.
	approx(t, e.Now(), 2, "total time")
}

func TestSpawnFromRunningProcess(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1e9, Latency: 0}})
	hs := newTestHosts(2, 1e9)
	var childRan bool
	e.SpawnProg("parent", hs[0], script(func(p *Prog) {
		e.SpawnProg("child", hs[1], script(
			func(c *Prog) { c.Sleep(1) },
			func(*Prog) { childRan = true },
		))
		p.Sleep(2)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
	approx(t, e.Now(), 2, "end time")
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, Stats) {
		link := &Link{Name: "l", Bandwidth: 1e7, Latency: 1e-4}
		e := NewEngine(pairRouter{link})
		hs := newTestHosts(8, 1e9)
		mb := boxes(e, 4)
		for i := 0; i < 4; i++ {
			var send, recv []func(*Prog)
			for k := 0; k < 10; k++ {
				size := float64(1000 * (k + 1))
				send = append(send, func(p *Prog) { put(p, mb[i], size); p.Exec(1e6) })
				recv = append(recv, func(p *Prog) { get(p, mb[i]); p.Exec(2e6) })
			}
			e.SpawnProg("s", hs[i], script(send...))
			e.SpawnProg("r", hs[4+i], script(recv...))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("non-deterministic end time: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("non-deterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestCommStateTransitions(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e6, Latency: 0.5}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	var c *Comm
	var stPending, stDone CommState
	var finish float64
	var s *Proc
	s = e.SpawnProg("s", hs[0], script(
		func(p *Prog) { p.PutPending(mb, 1e6) },
		func(*Prog) {
			c = s.m.pending[s.m.head]
			stPending = c.state
		},
		func(p *Prog) { p.WaitPending() },
		func(*Prog) { stDone, finish = c.state, c.finishTime },
	))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stPending != CommPending {
		t.Errorf("state before match = %v, want pending", stPending)
	}
	if stDone != CommDone {
		t.Errorf("state after wait = %v, want done", stDone)
	}
	approx(t, finish, 1.5, "finish time")
}

func TestStatsCount(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 0}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 1); put(p, mb, 1) }))
	e.SpawnProg("r", hs[1], script(func(p *Prog) { get(p, mb); get(p, mb) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CommsStarted != 2 || st.CommsCompleted != 2 {
		t.Fatalf("comm stats = %+v, want 2 started/completed", st)
	}
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}
