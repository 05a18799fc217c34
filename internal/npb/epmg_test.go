package npb

import (
	"math"
	"testing"

	"tireplay/internal/trace"
)

func TestEPValidationAndName(t *testing.T) {
	ep, err := NewEP(ClassA, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Name() != "EP A-8" {
		t.Fatalf("name = %q", ep.Name())
	}
	if _, err := NewEP(Class('Z'), 8); err == nil {
		t.Error("accepted bad class")
	}
	if _, err := NewEP(ClassA, 3); err == nil {
		t.Error("accepted non-power-of-two procs")
	}
}

func TestEPInstructionsMatchStream(t *testing.T) {
	ep, err := NewEP(ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ep.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	var a trace.Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if a.Kind == trace.Compute {
			sum += a.Instructions
		}
	}
	want := ep.BaseInstructions(0)
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("stream %.6g != analytic %.6g", sum, want)
	}
	// EP's total work is independent of P: per-rank share halves as P
	// doubles.
	ep2, _ := NewEP(ClassS, 8)
	if math.Abs(ep2.BaseInstructions(0)*2-want) > 1e-6*want {
		t.Fatalf("EP per-rank work does not scale as 1/P: %g at 8 procs vs %g at 4",
			ep2.BaseInstructions(0), want)
	}
}

func TestEPTraceIsComputeDominatedAndBalanced(t *testing.T) {
	ep, err := NewEP(ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(AsProvider(ep)); err != nil {
		t.Fatal(err)
	}
	st, _ := ep.Rank(3)
	p2p := 0
	var a trace.Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if a.Kind.HasPeer() {
			p2p++
		}
	}
	if p2p != 0 {
		t.Fatalf("EP emitted %d point-to-point actions, want none", p2p)
	}
}

func TestGrid3D(t *testing.T) {
	cases := []struct{ p, px, py, pz int }{
		{1, 1, 1, 1}, {2, 2, 1, 1}, {4, 2, 2, 1}, {8, 2, 2, 2},
		{16, 4, 2, 2}, {64, 4, 4, 4}, {128, 8, 4, 4},
	}
	for _, c := range cases {
		px, py, pz, err := grid3D(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if px*py*pz != c.p {
			t.Fatalf("grid3D(%d) = %dx%dx%d does not multiply out", c.p, px, py, pz)
		}
		if px != c.px || py != c.py || pz != c.pz {
			t.Fatalf("grid3D(%d) = %dx%dx%d, want %dx%dx%d", c.p, px, py, pz, c.px, c.py, c.pz)
		}
	}
	if _, _, _, err := grid3D(6); err == nil {
		t.Error("accepted non-power-of-two")
	}
}

func TestMGValidation(t *testing.T) {
	if _, err := NewMG(ClassB, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMG(ClassB, 5, 0); err == nil {
		t.Error("accepted non-power-of-two procs")
	}
	if _, err := NewMG(Class('Z'), 8, 0); err == nil {
		t.Error("accepted bad class")
	}
}

func TestMGInstructionsMatchStream(t *testing.T) {
	mg, err := NewMG(ClassS, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 8; rank++ {
		st, err := mg.Rank(rank)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		var a trace.Action
		for {
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if a.Kind == trace.Compute {
				sum += a.Instructions
			}
		}
		want := mg.BaseInstructions(rank)
		if math.Abs(sum-want) > 1e-6*want {
			t.Fatalf("rank %d: stream %.6g != analytic %.6g", rank, sum, want)
		}
	}
}

func TestMGTraceBalanced(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		mg, err := NewMG(ClassS, procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(AsProvider(mg)); err != nil {
			t.Fatalf("MG S-%d: %v", procs, err)
		}
	}
}

func TestMGHaloSizesShrinkWithLevel(t *testing.T) {
	mg, err := NewMG(ClassA, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := mg.Rank(0)
	var sizes []float64
	var a trace.Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if a.Kind == trace.Send {
			sizes = append(sizes, a.Bytes)
		}
	}
	if len(sizes) == 0 {
		t.Fatal("no halo messages")
	}
	maxSize, minSize := sizes[0], sizes[0]
	for _, s := range sizes {
		maxSize = math.Max(maxSize, s)
		minSize = math.Min(minSize, s)
	}
	// Fine-level faces are orders of magnitude larger than coarse ones.
	if maxSize < 100*minSize {
		t.Fatalf("halo sizes %v..%v: expected a wide multiscale range", minSize, maxSize)
	}
}

func TestMGNeighborsSymmetric(t *testing.T) {
	mg, err := NewMG(ClassS, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// If a is b's -x neighbour, b must be a's +x neighbour, etc.
	opposite := [6]int{1, 0, 3, 2, 5, 4}
	for rank := 0; rank < 8; rank++ {
		nb := mg.neighbors3D(rank)
		for d, peer := range nb {
			if peer < 0 {
				continue
			}
			back := mg.neighbors3D(peer)
			if back[opposite[d]] != rank {
				t.Fatalf("rank %d dir %d -> %d, but reverse is %d", rank, d, peer, back[opposite[d]])
			}
		}
	}
}

func TestMGSingleRankNoMessages(t *testing.T) {
	mg, err := NewMG(ClassS, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := mg.Rank(0)
	var a trace.Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if a.Kind.HasPeer() {
			t.Fatalf("single-rank MG emitted %v", a)
		}
	}
}
