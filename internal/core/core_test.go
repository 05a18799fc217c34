package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/platform"
	"tireplay/internal/trace"
)

func testPlatform(t *testing.T, n int) *platform.Platform {
	t.Helper()
	spec := platform.Spec{
		Name: "test", Topology: "flat", Hosts: n, Speed: 1e9,
		LinkBandwidth: 1e9, LinkLatency: 1e-5,
		BackboneBandwidth: 1e10, BackboneLatency: 1e-6,
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// provFromText writes one trace file per rank and opens the set through its
// description file, the text path replay takes.
func provFromText(t *testing.T, perRank ...string) trace.Provider {
	t.Helper()
	dir := t.TempDir()
	var desc strings.Builder
	for r, src := range perRank {
		name := "r_" + strconv.Itoa(r) + ".trace"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		desc.WriteString(name + "\n")
	}
	path := filepath.Join(dir, "r.desc")
	if err := os.WriteFile(path, []byte(desc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := trace.LoadDescription(path, len(perRank))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReplayComputeOnly(t *testing.T) {
	prov := provFromText(t, "p0 compute 2000000000\n")
	res, err := Replay(prov, testPlatform(t, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SimulatedTime-2.0) > 1e-9 {
		t.Fatalf("simulated time = %v, want 2.0", res.SimulatedTime)
	}
	if res.Actions != 1 {
		t.Fatalf("actions = %d, want 1", res.Actions)
	}
}

func TestReplayPaperSnippet(t *testing.T) {
	// The trace snippet of Section 3.2: p0 computes and sends to p1 and p2.
	prov := provFromText(t,
		"p0 compute 956140\np0 send p1 1240\np0 compute 2110\np0 send p2 1240\np0 compute 3821\n",
		"p1 recv p0 1240\n",
		"p2 recv p0 1240\n",
	)
	res, err := Replay(prov, testPlatform(t, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions != 7 {
		t.Fatalf("actions = %d, want 7", res.Actions)
	}
	// p0's compute dominates: (956140+2110+3821)/1e9 plus transfers.
	if res.SimulatedTime <= 962071.0/1e9 {
		t.Fatalf("simulated time = %v, too small", res.SimulatedTime)
	}
}

func TestReplaySMPIEagerVsMSGAsync(t *testing.T) {
	// A pipelined pattern: the sender pushes small messages while the
	// receiver computes. Under SMPI (eager/detached) the transfers overlap
	// the receiver's compute; under MSG they only start at recv time, so
	// MSG must predict a strictly larger makespan.
	var sb0, sb1 strings.Builder
	for i := 0; i < 50; i++ {
		sb0.WriteString("p0 compute 1000000\np0 send p1 2048\n")
		sb1.WriteString("p1 compute 1500000\np1 recv p0 2048\n")
	}
	prov := provFromText(t, sb0.String(), sb1.String())
	plat := testPlatform(t, 2)

	smpi, err := Replay(prov, plat, Config{Backend: SMPI})
	if err != nil {
		t.Fatal(err)
	}
	prov = provFromText(t, sb0.String(), sb1.String())
	msg, err := Replay(prov, testPlatform(t, 2), Config{
		Backend: MSG,
		MSG:     msgreplay.Config{RefLatency: 2.1e-5, RefBandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg.SimulatedTime <= smpi.SimulatedTime {
		t.Fatalf("MSG time %v <= SMPI time %v; async sends should cost more",
			msg.SimulatedTime, smpi.SimulatedTime)
	}
}

func TestReplayIsendIrecvWait(t *testing.T) {
	prov := provFromText(t,
		"p0 irecv p1 8\np0 send p1 100000\np0 wait\n",
		"p1 irecv p0 100000\np1 send p0 8\np1 wait\n",
	)
	res, err := Replay(prov, testPlatform(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestReplayWaitAll(t *testing.T) {
	prov := provFromText(t,
		"p0 irecv p1 8\np0 irecv p1 8\np0 waitall\n",
		"p1 send p0 8\np1 send p0 8\n",
	)
	if _, err := Replay(prov, testPlatform(t, 2), Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCollectives(t *testing.T) {
	mk := func(rank int) string {
		return strings.ReplaceAll(
			"pR compute 1000\npR barrier\npR bcast 1024\npR allreduce 40\npR reduce 8\npR alltoall 64\npR allgather 64\npR gather 32\n",
			"R", string(rune('0'+rank)))
	}
	for _, backend := range []BackendKind{SMPI, MSG} {
		prov := provFromText(t, mk(0), mk(1), mk(2), mk(3))
		cfg := Config{Backend: backend}
		if backend == MSG {
			cfg.MSG = msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}
		}
		res, err := Replay(prov, testPlatform(t, 4), cfg)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.SimulatedTime <= 0 {
			t.Fatalf("%v: no simulated time", backend)
		}
	}
}

func TestReplayV1RecvWithoutSize(t *testing.T) {
	// v1 traces omit the receive size; replay must still match the send.
	prov := provFromText(t,
		"p0 send p1 1240\n",
		"p1 recv p0\n",
	)
	if _, err := Replay(prov, testPlatform(t, 2), Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMemcpyModelledIncreasesSenderTime(t *testing.T) {
	mkProv := func() trace.Provider {
		var s0, s1 strings.Builder
		for i := 0; i < 100; i++ {
			s0.WriteString("p0 send p1 4096\n")
			s1.WriteString("p1 recv p0 4096\n")
		}
		return provFromText(t, s0.String(), s1.String())
	}
	without, err := Replay(mkProv(), testPlatform(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Replay(mkProv(), testPlatform(t, 2), Config{
		MPI: mpi.ModelConfig{MemcpyBandwidth: 1e8, MemcpyLatency: 1e-5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if with.SimulatedTime <= without.SimulatedTime {
		t.Fatalf("memcpy model did not increase time: %v vs %v",
			with.SimulatedTime, without.SimulatedTime)
	}
}

func TestReplayPiecewiseNetworkModel(t *testing.T) {
	model, err := platform.NewPiecewiseModel([]platform.SegmentSpec{
		{MaxBytes: 65536, LatFactor: 2, BwFactor: 0.5},
		{MaxBytes: math.MaxFloat64, LatFactor: 1, BwFactor: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	prov := provFromText(t, "p0 send p1 100000\n", "p1 recv p0 100000\n")
	plain, err := Replay(prov, testPlatform(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	prov = provFromText(t, "p0 send p1 100000\n", "p1 recv p0 100000\n")
	factored, err := Replay(prov, testPlatform(t, 2), Config{Network: model})
	if err != nil {
		t.Fatal(err)
	}
	// 100 kB message: bw factor 0.95 -> slightly slower than plain.
	if factored.SimulatedTime <= plain.SimulatedTime {
		t.Fatalf("piecewise model had no effect: %v vs %v",
			factored.SimulatedTime, plain.SimulatedTime)
	}
}

func TestReplayErrors(t *testing.T) {
	plat := testPlatform(t, 2)
	// Too many ranks for the platform.
	prov := provFromText(t, "p0 compute 1\n", "p1 compute 1\n", "p2 compute 1\n")
	if _, err := Replay(prov, plat, Config{}); err == nil {
		t.Error("expected error for rank/host mismatch")
	}
	// Orphan wait.
	prov = provFromText(t, "p0 wait\n")
	if _, err := Replay(prov, plat, Config{}); err == nil {
		t.Error("expected error for orphan wait")
	}
	// Unmatched recv -> deadlock.
	prov = provFromText(t, "p0 recv p1\n", "p1 compute 1\n")
	if _, err := Replay(prov, plat, Config{}); err == nil {
		t.Error("expected deadlock error")
	}
	// Unknown backend.
	prov = provFromText(t, "p0 compute 1\n")
	if _, err := Replay(prov, plat, Config{Backend: "no-such-backend"}); err == nil {
		t.Error("expected error for unknown backend")
	}
}

// A peer outside the communicator, or the sender itself, is rejected where
// the action is read, as a *TraceError: lowering does not check it again.
func TestPeerValidationFaults(t *testing.T) {
	prov := provFromText(t, "p0 send p5 10\n", "p1 compute 1\n")
	var te *TraceError
	if _, err := Replay(prov, testPlatform(t, 2), Config{}); !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *TraceError for an out-of-range peer", err)
	}
}

func TestSelfSendFaults(t *testing.T) {
	prov := provFromText(t, "p0 send p0 10\n", "p1 compute 1\n")
	var te *TraceError
	if _, err := Replay(prov, testPlatform(t, 2), Config{}); !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *TraceError for a self send", err)
	}
}

func TestReplayDeterministic(t *testing.T) {
	mk := func() trace.Provider {
		var s0, s1 strings.Builder
		for i := 0; i < 200; i++ {
			s0.WriteString("p0 compute 500000\np0 send p1 3000\np0 irecv p1 100\np0 wait\n")
			s1.WriteString("p1 compute 700000\np1 recv p0 3000\np1 send p0 100\n")
		}
		return provFromText(t, s0.String(), s1.String())
	}
	a, err := Replay(mk(), testPlatform(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(mk(), testPlatform(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SimulatedTime != b.SimulatedTime {
		t.Fatalf("non-deterministic replay: %v vs %v", a.SimulatedTime, b.SimulatedTime)
	}
}

func TestResultThroughput(t *testing.T) {
	prov := provFromText(t, "p0 compute 1000\n")
	res, err := Replay(prov, testPlatform(t, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActionsPerSecond() <= 0 {
		t.Fatalf("throughput = %v", res.ActionsPerSecond())
	}
}

func TestBackendNames(t *testing.T) {
	if SMPI != "smpi" || MSG != "msg" {
		t.Fatal("backend names wrong")
	}
}
