package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Tests of the continuation machine. Where a test compares against recorded
// values, they were recorded from the goroutine-per-process scheduler the
// machine was proven bit-identical to before that scheduler was deleted.

func TestProgFeedErrorAndPanicParity(t *testing.T) {
	h := func() (*Engine, *Host) {
		e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
		return e, &Host{Name: "h", Speed: 1e9}
	}
	boom := errors.New("malformed")
	e, host := h()
	e.SpawnProg("r", host, func(p *Prog) (bool, error) { return false, boom })
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("feed error: %v, want boom", err)
	}
	// A panic inside the feed is reported exactly as a panicking goroutine
	// process body was.
	e, host = h()
	e.SpawnProg("r", host, func(p *Prog) (bool, error) { panic("kaput") })
	const want = "sim: process r panicked: kaput"
	if err := e.Run(); err == nil || err.Error() != want {
		t.Fatalf("panic report = %v, want %q", err, want)
	}
}

// A step-function process that sleeps in sequence wakes at each deadline and
// costs one context switch per resume, as a goroutine process did.
func TestSpawnTaskSleepSequence(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
	h := &Host{Name: "h", Speed: 1e9}
	state := 0
	var times []float64
	e.SpawnProg("t", h, func(p *Prog) (bool, error) {
		times = append(times, e.Now())
		if state++; state <= 3 {
			p.Sleep(0.5)
			return true, nil
		}
		return false, nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1.5 {
		t.Fatalf("end time = %v, want 1.5", e.Now())
	}
	if len(times) != 4 || times[1] != 0.5 || times[3] != 1.5 {
		t.Fatalf("wake times = %v", times)
	}
	if cs := e.Stats().ContextSwitches; cs != 4 {
		t.Fatalf("context switches = %d, want 4", cs)
	}
}

func TestProgPingPongBitIdenticalToGoroutines(t *testing.T) {
	const rounds = 100
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	space := e.NewPairSpace("t", hs)
	ab, ba := space.Box(0, 1), space.Box(1, 0)
	i, j := 0, 0
	e.SpawnProg("a", hs[0], func(p *Prog) (bool, error) {
		if i++; i > rounds {
			return false, nil
		}
		put(p, ab, 1024)
		get(p, ba)
		return true, nil
	})
	e.SpawnProg("b", hs[1], func(p *Prog) (bool, error) {
		if j++; j > rounds {
			return false, nil
		}
		get(p, ab)
		put(p, ba, 1024)
		return true, nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Recorded from the goroutine scheduler.
	const wantEnd = 0.00040480000000000306
	wantStats := Stats{ContextSwitches: 402, TimersFired: 200, CommsStarted: 200, CommsCompleted: 200,
		ShareRecomputes: 399, Events: 400, ComponentsResolved: 200, FlowsResolved: 200, MaxComponentFlows: 1}
	if e.Now() != wantEnd {
		t.Fatalf("end time %v, want %v", e.Now(), wantEnd)
	}
	if st := e.Stats(); st != wantStats {
		t.Fatalf("stats diverge:\n got:  %+v\n want: %+v", st, wantStats)
	}
}

func TestProgPendingFIFO(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	space := e.NewPairSpace("t", hs)
	ab := space.Box(0, 1)
	sent := 0
	e.SpawnProg("s", hs[0], func(p *Prog) (bool, error) {
		switch sent++; sent {
		case 1:
			p.PutPending(ab, 100)
			p.PutPending(ab, 200)
			p.PushPendingDone() // a born-done request interleaved in the FIFO
			p.PutPending(ab, 300)
		case 2:
			p.WaitPending()
			p.WaitPending()
			p.WaitAllPending()
		default:
			return false, nil
		}
		return true, nil
	})
	got := 0
	e.SpawnProg("r", hs[1], func(p *Prog) (bool, error) {
		if got++; got > 3 {
			return false, nil
		}
		p.Get(ab, 0)
		p.WaitReg(0)
		return true, nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestProgBarrierAgainstGoroutine(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1e9}})
	hs := newTestHosts(4, 1e9)
	bar := e.NewBarrier(4)
	for i := 0; i < 4; i++ {
		d := float64(i) * 0.25
		e.SpawnProg(fmt.Sprintf("p%d", i), hs[i], script(func(p *Prog) {
			p.Sleep(d)
			p.Await(bar)
			p.Sleep(0.1)
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The last arrival is at 0.75; everyone leaves then and sleeps 0.1.
	if e.Now() != 0.85 {
		t.Fatalf("end time %v, want 0.85", e.Now())
	}
	// Recorded from the goroutine scheduler.
	want := Stats{ContextSwitches: 15, TimersFired: 8, Events: 5}
	if st := e.Stats(); st != want {
		t.Fatalf("stats diverge:\n got:  %+v\n want: %+v", st, want)
	}
}

// TestBlockedOnCommClearedAfterWait pins the unblock path: once a process
// resumes from a comm wait, its blockInfo must not keep the comm alive (the
// reference would defeat pooling and could leak a recycled comm into a later
// deadlock report).
func TestBlockedOnCommClearedAfterWait(t *testing.T) {
	link := &Link{Name: "l", Bandwidth: 1e9, Latency: 1e-6}
	e := NewEngine(pairRouter{link})
	hs := newTestHosts(2, 1e9)
	mb := boxes(e, 1)[0]
	checked := false
	e.SpawnProg("s", hs[0], script(func(p *Prog) { put(p, mb, 1024) }))
	var r *Proc
	r = e.SpawnProg("r", hs[1], script(
		func(p *Prog) { get(p, mb) },
		func(*Prog) {
			if r.blockedOn.comm != nil {
				t.Errorf("blockedOn.comm = %v after wait, want nil", r.blockedOn.comm)
			}
			checked = true
		},
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("receiver never ran")
	}
}

// TestDeadlockReportIdenticalSchedulers pins the report of a never-matched
// receive to the text the goroutine scheduler produced: the lazily rendered
// pair-mailbox names must reproduce the historical format exactly.
func TestDeadlockReportIdenticalSchedulers(t *testing.T) {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1e9, Latency: 1e-6}})
	hs := newTestHosts(2, 1e9)
	box := e.NewPairSpace("p", hs).Box(1, 0)
	e.SpawnProg("rank0", hs[0], script(func(p *Prog) { get(p, box) }))
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	const golden = `sim: deadlock at t=0 with 1 blocked process(es): rank0: wait(comm 1 on "p:1>0")`
	if err.Error() != golden {
		t.Fatalf("deadlock report = %q, want %q", err.Error(), golden)
	}
}
