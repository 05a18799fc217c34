package msgreplay

import (
	"math"
	"testing"

	"tireplay/internal/platform"
	"tireplay/internal/sim"
)

func testWorld(t *testing.T, n int, cfg Config) (*World, *sim.Engine) {
	t.Helper()
	spec := platform.Spec{
		Name: "m", Topology: "flat", Hosts: n, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p)
	w, err := NewWorld(e, p.Hosts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, e
}

// step lowers part of a rank's program through its compiler.
type step = func(tr *TaskRank, p *sim.Prog)

// spawn starts rank of w running steps, one per feed call. A step that
// emits no ops may record the engine time: the machine feeds again at once,
// so it reads the time the previous step's ops completed.
func spawn(w *World, rank int, steps ...step) {
	tr := w.TaskRank(rank)
	i := 0
	w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
		if i == len(steps) {
			return false, nil
		}
		steps[i](tr, p)
		i++
		return true, nil
	})
}

// at returns a step recording the simulated time into *t.
func at(e *sim.Engine, t *float64) step {
	return func(*TaskRank, *sim.Prog) { *t = e.Now() }
}

func TestSmallSendIsAsyncButNotDetached(t *testing.T) {
	// The sender returns immediately, but the transfer only starts when the
	// receiver posts: a late receiver pays full latency + transfer.
	w, e := testWorld(t, 2, Config{})
	var sendEnd, before, after float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 2048) }, at(e, &sendEnd)) // small
	spawn(w, 1,
		func(_ *TaskRank, p *sim.Prog) { p.Sleep(1) },
		at(e, &before),
		func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) },
		at(e, &after))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendEnd != 0 {
		t.Fatalf("async send end = %v, want 0", sendEnd)
	}
	wantWait := 2.1e-5 + 2048/1e9
	if recvWait := after - before; math.Abs(recvWait-wantWait) > 1e-9 {
		t.Fatalf("recv wait = %v, want %v (transfer starts at match)", recvWait, wantWait)
	}
}

func TestLargeSendBlocks(t *testing.T) {
	w, e := testWorld(t, 2, Config{})
	var sendEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 1<<20) }, at(e, &sendEnd))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) {
		p.Sleep(0.5)
		tr.Recv(p, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendEnd < 0.5 {
		t.Fatalf("large send returned at %v, want blocking", sendEnd)
	}
}

func TestIsendWaitBalanced(t *testing.T) {
	w, e := testWorld(t, 2, Config{})
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) {
		tr.Isend(p, 1, 100)
		p.WaitPending()
	})
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWait(t *testing.T) {
	w, e := testWorld(t, 2, Config{})
	var end float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) {
		tr.Irecv(p, 1)
		tr.Compute(p, 1e9) // overlap
		p.WaitPending()
	}, at(e, &end))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 0, 500) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.0) > 1e-3 {
		t.Fatalf("end = %v, want ~1.0 (compute dominates)", end)
	}
}

func TestMonolithicCollectiveSynchronizesAll(t *testing.T) {
	const n = 4
	w, e := testWorld(t, n, Config{RefLatency: 1e-3, RefBandwidth: 1e9})
	ends := make([]float64, n)
	for i := 0; i < n; i++ {
		spawn(w, i, func(tr *TaskRank, p *sim.Prog) {
			p.Sleep(float64(i) * 0.1)
			tr.Bcast(p, 1024, 0)
		}, at(e, &ends[i]))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Monolithic model: everyone leaves at lastArrival + log2(4)*(lat+size/bw).
	want := 0.3 + 2*(1e-3+1024/1e9)
	for i, end := range ends {
		if math.Abs(end-want) > 1e-9 {
			t.Fatalf("rank %d bcast end = %v, want %v", i, end, want)
		}
	}
}

func TestCollectiveFormulas(t *testing.T) {
	const n = 8
	cfg := Config{RefLatency: 1e-3, RefBandwidth: 1e8}
	cases := []struct {
		name string
		call step
		want float64
	}{
		{"barrier", func(tr *TaskRank, p *sim.Prog) { tr.Barrier(p) }, 3 * 1e-3},
		{"bcast", func(tr *TaskRank, p *sim.Prog) { tr.Bcast(p, 1e6, 0) }, 3 * (1e-3 + 1e6/1e8)},
		{"reduce", func(tr *TaskRank, p *sim.Prog) { tr.Reduce(p, 1e6, 0) }, 3 * (1e-3 + 1e6/1e8)},
		{"allreduce", func(tr *TaskRank, p *sim.Prog) { tr.AllReduce(p, 1e6) }, 6 * (1e-3 + 1e6/1e8)},
		{"alltoall", func(tr *TaskRank, p *sim.Prog) { tr.AllToAll(p, 1e6) }, 7 * (1e-3 + 1e6/1e8)},
		{"gather", func(tr *TaskRank, p *sim.Prog) { tr.Gather(p, 1e6, 0) }, 7 * (1e-3 + 1e6/1e8)},
		{"allgather", func(tr *TaskRank, p *sim.Prog) { tr.AllGather(p, 1e6) }, 7 * (1e-3 + 1e6/1e8)},
	}
	for _, tc := range cases {
		w, e := testWorld(t, n, cfg)
		ends := make([]float64, n)
		for i := 0; i < n; i++ {
			spawn(w, i, tc.call, at(e, &ends[i]))
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, end := range ends {
			if math.Abs(end-tc.want) > 1e-9 {
				t.Fatalf("%s: rank %d end = %v, want %v", tc.name, i, end, tc.want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	spec := platform.Spec{
		Name: "m", Topology: "flat", Hosts: 1, Speed: 1e9,
		LinkBandwidth: 1e9, BackboneBandwidth: 1e10,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p)
	if _, err := NewWorld(e, nil, Config{}); err == nil {
		t.Error("expected error for empty hosts")
	}
	if _, err := NewWorld(e, []*sim.Host{nil}, Config{}); err == nil {
		t.Error("expected error for nil host")
	}
	if _, err := NewWorld(e, p.Hosts(), Config{RefLatency: -1}); err == nil {
		t.Error("expected error for negative latency")
	}
}

func TestDefaultEagerThreshold(t *testing.T) {
	var c Config
	if c.eagerThreshold() != 65536 {
		t.Fatalf("default threshold = %v", c.eagerThreshold())
	}
	c.EagerThreshold = 1000
	if c.eagerThreshold() != 1000 {
		t.Fatalf("custom threshold = %v", c.eagerThreshold())
	}
}
