package mpi

import (
	"math"
	"testing"

	"tireplay/internal/platform"
	"tireplay/internal/sim"
)

// testWorld builds an n-rank world on a flat cluster with simple numbers:
// 1 GB/s links, 10 GB/s backbone, 10 us link latency.
func testWorld(t *testing.T, n int, cfg ModelConfig) (*World, *sim.Engine) {
	t.Helper()
	spec := platform.Spec{
		Name: "t", Topology: "flat", Hosts: n, Speed: 1e9,
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

const routeLat = 2.1e-5 // 2 links at 1e-5 + backbone 1e-6

func approx(t *testing.T, got, want, tolFrac float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tolFrac*math.Abs(want)+1e-12 {
		t.Fatalf("%s = %v, want %v (±%v%%)", what, got, want, 100*tolFrac)
	}
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

// sleep returns a step that idles for d simulated seconds.
func sleep(d float64) step {
	return func(_ *TaskRank, p *sim.Prog) { p.Sleep(d) }
}

func TestEagerSendReturnsImmediately(t *testing.T) {
	w, e := testWorld(t, 2, ModelConfig{})
	var sendEnd, recvEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 1024) }, at(e, &sendEnd))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) }, at(e, &recvEnd))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendEnd != 0 {
		t.Fatalf("eager send took %v, want 0 (no memcpy modelled)", sendEnd)
	}
	// Transfer: latency + 1024/1e9.
	approx(t, recvEnd, routeLat+1024/1e9, 1e-9, "recv end")
}

func TestEagerSendChargesMemcpyWhenModelled(t *testing.T) {
	cfg := ModelConfig{MemcpyBandwidth: 2e9, MemcpyLatency: 1e-6}
	w, e := testWorld(t, 2, cfg)
	var sendEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 2048) }, at(e, &sendEnd))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, sendEnd, 1e-6+2048/2e9, 1e-9, "eager sender memcpy cost")
}

func TestRendezvousSendBlocks(t *testing.T) {
	w, e := testWorld(t, 2, ModelConfig{})
	var sendEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 1<<20) }, at(e, &sendEnd)) // 1 MiB >= threshold
	spawn(w, 1, sleep(0.5), func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Sender blocks until receiver posts at 0.5, then transfer.
	want := 0.5 + routeLat + float64(1<<20)/1e9
	approx(t, sendEnd, want, 1e-9, "rendezvous send end")
}

func TestEagerThresholdBoundary(t *testing.T) {
	// Exactly 65536 bytes must use rendezvous ("size < 65536" is eager).
	w, e := testWorld(t, 2, ModelConfig{})
	var sendEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 65536) }, at(e, &sendEnd))
	spawn(w, 1, sleep(1), func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendEnd < 1 {
		t.Fatalf("64 KiB send returned at %v: eager, want rendezvous", sendEnd)
	}
}

func TestCustomEagerThreshold(t *testing.T) {
	w, e := testWorld(t, 2, ModelConfig{EagerThreshold: 100})
	var sendEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 200) }, at(e, &sendEnd)) // above custom threshold -> rendezvous
	spawn(w, 1, sleep(0.25), func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendEnd < 0.25 {
		t.Fatalf("send returned at %v, want rendezvous wait", sendEnd)
	}
}

func TestEagerOverlapWithReceiverCompute(t *testing.T) {
	// The receiver computes while the eager message is in flight: the recv
	// posted after arrival returns instantly. This is the behaviour the MSG
	// prototype could not express.
	w, e := testWorld(t, 2, ModelConfig{})
	var before, after float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 4096) })
	spawn(w, 1,
		sleep(0.1), // much longer than the transfer
		at(e, &before),
		func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) },
		at(e, &after))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wait := after - before; wait > 1e-9 {
		t.Fatalf("recv waited %v, want ~0 (data already buffered)", wait)
	}
}

func TestIsendWaitAndTest(t *testing.T) {
	w, e := testWorld(t, 2, ModelConfig{})
	var eagerDone, largePosted, largeDone float64
	spawn(w, 0,
		// An eager isend is complete as soon as it is posted.
		func(tr *TaskRank, p *sim.Prog) { tr.Isend(p, 1, 8); p.WaitPending() },
		at(e, &eagerDone),
		func(tr *TaskRank, p *sim.Prog) { tr.Isend(p, 1, 1<<20) },
		at(e, &largePosted),
		func(_ *TaskRank, p *sim.Prog) { p.WaitPending() },
		at(e, &largeDone))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) {
		tr.Recv(p, 0)
		tr.Recv(p, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if eagerDone != 0 {
		t.Errorf("eager isend completed at %v, want immediately", eagerDone)
	}
	if largePosted != 0 {
		t.Errorf("large isend blocked the sender until %v, want nonblocking", largePosted)
	}
	if largeDone <= routeLat {
		t.Errorf("large isend complete at %v, before its transfer could finish", largeDone)
	}
}

func TestIrecvWaitAll(t *testing.T) {
	w, e := testWorld(t, 3, ModelConfig{})
	var end float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) {
		tr.Irecv(p, 1)
		tr.Irecv(p, 2)
		p.WaitAllPending()
	}, at(e, &end))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 0, 1000) })
	spawn(w, 2, sleep(0.3), func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 0, 1000) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 0.3 {
		t.Fatalf("waitall returned at %v, want >= 0.3", end)
	}
}

func TestSendRecvNoDeadlock(t *testing.T) {
	// Symmetric large-message exchange would deadlock with blocking sends;
	// isend + recv + wait (MPI_Sendrecv) must complete.
	w, e := testWorld(t, 2, ModelConfig{})
	for rank := 0; rank < 2; rank++ {
		peer := 1 - rank
		spawn(w, rank, func(tr *TaskRank, p *sim.Prog) {
			tr.Isend(p, peer, 1<<20)
			tr.Recv(p, peer)
			p.WaitPending()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOverheads(t *testing.T) {
	cfg := ModelConfig{SendOverhead: 1e-3, RecvOverhead: 2e-3}
	w, e := testWorld(t, 2, cfg)
	var sendEnd, recvEnd float64
	spawn(w, 0, func(tr *TaskRank, p *sim.Prog) { tr.Send(p, 1, 8) }, at(e, &sendEnd))
	spawn(w, 1, func(tr *TaskRank, p *sim.Prog) { tr.Recv(p, 0) }, at(e, &recvEnd))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, sendEnd, 1e-3, 1e-9, "send overhead")
	if recvEnd < 1e-3+2e-3 {
		t.Fatalf("recv end = %v, want >= send overhead + recv overhead", recvEnd)
	}
}

// runCollective runs body on every rank of an n-rank world under cfg and
// returns each rank's end time.
func runCollective(t *testing.T, n int, cfg ModelConfig, body step) []float64 {
	t.Helper()
	w, e := testWorld(t, n, cfg)
	ends := make([]float64, n)
	for i := 0; i < n; i++ {
		spawn(w, i, body, at(e, &ends[i]))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return ends
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5 // non power of two on purpose
	w, e := testWorld(t, n, ModelConfig{})
	ends := make([]float64, n)
	for i := 0; i < n; i++ {
		spawn(w, i,
			sleep(float64(i)*0.1), // staggered arrivals
			func(tr *TaskRank, p *sim.Prog) { tr.Barrier(p) },
			at(e, &ends[i]))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Nobody leaves before the last arrival at 0.4.
	for i, end := range ends {
		if end < 0.4 {
			t.Fatalf("rank %d left barrier at %v, before last arrival", i, end)
		}
		if end > 0.41 {
			t.Fatalf("rank %d left barrier at %v, too slow", i, end)
		}
	}
}

func TestBcastDelivers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 8} {
		ends := runCollective(t, n, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.Bcast(p, 1024, 0) })
		for i := 1; i < n; i++ {
			if ends[i] <= 0 {
				t.Fatalf("n=%d: rank %d finished bcast at %v, want > 0", n, i, ends[i])
			}
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	const n = 6
	ends := runCollective(t, n, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.Bcast(p, 512, 3) })
	// Eager sends are free for the root (no memcpy modelled), so only check
	// that every non-root rank actually received through the tree.
	for i := 0; i < n; i++ {
		if i != 3 && ends[i] <= 0 {
			t.Fatalf("rank %d finished bcast at %v, want > 0", i, ends[i])
		}
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		ends := runCollective(t, n, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.Reduce(p, 2048, 0) })
		if ends[0] <= 0 {
			t.Fatalf("n=%d: root finished at %v", n, ends[0])
		}
	}
}

func TestAllReducePowerOfTwoAndOdd(t *testing.T) {
	for _, n := range []int{2, 4, 8, 3, 6} {
		ends := runCollective(t, n, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.AllReduce(p, 40) })
		for i := 0; i < n; i++ {
			if ends[i] <= 0 {
				t.Fatalf("n=%d: rank %d never finished allreduce", n, i)
			}
		}
	}
}

func TestAllReduceSingleRankIsFree(t *testing.T) {
	ends := runCollective(t, 1, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) {
		tr.AllReduce(p, 40)
		tr.Barrier(p)
		tr.AllToAll(p, 8)
		tr.AllGather(p, 8)
		tr.Gather(p, 8, 0)
	})
	if ends[0] != 0 {
		t.Fatalf("single-rank collectives took %v, want 0", ends[0])
	}
}

func TestAllToAllCompletes(t *testing.T) {
	ends := runCollective(t, 4, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.AllToAll(p, 4096) })
	for i, end := range ends {
		if end <= 0 {
			t.Fatalf("rank %d alltoall end = %v", i, end)
		}
	}
}

func TestGatherAndAllGather(t *testing.T) {
	ends := runCollective(t, 5, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) {
		tr.Gather(p, 128, 2)
		tr.AllGather(p, 128)
	})
	for i, end := range ends {
		if end <= 0 {
			t.Fatalf("rank %d end = %v", i, end)
		}
	}
}

func TestBackToBackCollectivesKeepOrder(t *testing.T) {
	// Successive collectives on the same pair mailboxes must not cross-match.
	const n = 4
	w, e := testWorld(t, n, ModelConfig{})
	times := make([][]float64, n)
	for i := 0; i < n; i++ {
		times[i] = make([]float64, 10)
		var steps []step
		for k := 0; k < 10; k++ {
			steps = append(steps, func(tr *TaskRank, p *sim.Prog) { tr.AllReduce(p, 40) }, at(e, &times[i][k]))
		}
		spawn(w, i, steps...)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k := 1; k < 10; k++ {
			if times[i][k] < times[i][k-1] {
				t.Fatalf("rank %d: allreduce %d ended before %d", i, k, k-1)
			}
		}
	}
}

func TestLargeMessageCollective(t *testing.T) {
	// Collectives with rendezvous-sized payloads must not deadlock.
	ends := runCollective(t, 4, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) {
		tr.AllReduce(p, 1<<20)
		tr.Bcast(p, 1<<20, 0)
		tr.Reduce(p, 1<<20, 0)
	})
	for i, end := range ends {
		if end <= 0 {
			t.Fatalf("rank %d end = %v", i, end)
		}
	}
}

func TestComputeUsesHostSpeed(t *testing.T) {
	ends := runCollective(t, 1, ModelConfig{}, func(tr *TaskRank, p *sim.Prog) { tr.Compute(p, 2e9) })
	approx(t, ends[0], 2.0, 1e-9, "compute at 1e9 instr/s")
}

func TestWorldValidation(t *testing.T) {
	spec := platform.Spec{
		Name: "t", Topology: "flat", Hosts: 2, Speed: 1e9,
		LinkBandwidth: 1e9, BackboneBandwidth: 1e10,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p)
	if _, err := NewWorld(e, nil, ModelConfig{}); err == nil {
		t.Error("expected error for empty hosts")
	}
	if _, err := NewWorld(e, []*sim.Host{nil}, ModelConfig{}); err == nil {
		t.Error("expected error for nil host")
	}
}
