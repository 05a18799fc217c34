package npb

import (
	"math"
	"testing"
	"testing/quick"

	"tireplay/internal/trace"
)

func TestGrid2D(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2},
		{16, 4, 4}, {32, 8, 4}, {64, 8, 8}, {128, 16, 8},
	}
	for _, c := range cases {
		px, py, err := grid2D(c.p)
		if err != nil {
			t.Fatalf("grid2D(%d): %v", c.p, err)
		}
		if px != c.px || py != c.py {
			t.Fatalf("grid2D(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
	}
	for _, bad := range []int{0, -1, 3, 6, 12, 100} {
		if _, _, err := grid2D(bad); err == nil {
			t.Errorf("grid2D(%d) accepted", bad)
		}
	}
}

func TestSplitConserves(t *testing.T) {
	f := func(n16, parts8 uint8) bool {
		n := int(n16) + 1
		parts := int(parts8)%n + 1
		total := 0
		for i := 0; i < parts; i++ {
			s := split(n, parts, i)
			if s < n/parts || s > n/parts+1 {
				return false
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassParams(t *testing.T) {
	for _, c := range []struct {
		class Class
		size  int
		iters int
	}{
		{ClassS, 12, 50}, {ClassA, 64, 250}, {ClassB, 102, 250}, {ClassC, 162, 250},
	} {
		n, err := c.class.luSize()
		if err != nil || n != c.size {
			t.Fatalf("class %s size = %d,%v", c.class, n, err)
		}
		it, err := c.class.luIterations()
		if err != nil || it != c.iters {
			t.Fatalf("class %s iters = %d,%v", c.class, it, err)
		}
	}
	if _, err := ParseClass("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseClass("Z"); err == nil {
		t.Fatal("accepted bad class")
	}
	if _, err := ParseClass("BB"); err == nil {
		t.Fatal("accepted two-letter class")
	}
}

func TestLUValidation(t *testing.T) {
	if _, err := NewLU(ClassB, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLU(ClassB, 6, 0); err == nil {
		t.Error("accepted non-power-of-two procs")
	}
	if _, err := NewLU(ClassS, 1024, 0); err == nil {
		t.Error("accepted grid larger than problem")
	}
	if _, err := NewLU(Class('Z'), 8, 0); err == nil {
		t.Error("accepted bad class")
	}
}

// TestLUPaperInstructionCounts verifies the calibration of the instruction
// model against the two counter values quoted in Section 2.2 of the paper:
// ~1.70e11 instructions per process for B-8 and ~8.87e10 for C-64.
func TestLUPaperInstructionCounts(t *testing.T) {
	b8, err := NewLU(ClassB, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for r := 0; r < 8; r++ {
		mean += b8.BaseInstructions(r)
	}
	mean /= 8
	if math.Abs(mean-1.70e11)/1.70e11 > 0.03 {
		t.Fatalf("B-8 mean instructions = %.3e, want within 3%% of 1.70e11", mean)
	}
	c64, err := NewLU(ClassC, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean = 0
	for r := 0; r < 64; r++ {
		mean += c64.BaseInstructions(r)
	}
	mean /= 64
	if math.Abs(mean-8.87e10)/8.87e10 > 0.03 {
		t.Fatalf("C-64 mean instructions = %.3e, want within 3%% of 8.87e10", mean)
	}
}

// TestLUStreamMatchesAnalytic checks that the generated compute volumes sum
// exactly to BaseInstructions for every rank.
func TestLUStreamMatchesAnalytic(t *testing.T) {
	lu, err := NewLU(ClassS, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 8; rank++ {
		st, err := lu.Rank(rank)
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
		want := lu.BaseInstructions(rank)
		if math.Abs(sum-want) > 1e-6*want {
			t.Fatalf("rank %d: generated %.6e instructions, analytic %.6e", rank, sum, want)
		}
	}
}

// TestLUTraceBalanced validates the cross-rank consistency of the generated
// trace (every send matched, collectives balanced) via the trace validator.
func TestLUTraceBalanced(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8, 16} {
		lu, err := NewLU(ClassS, procs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(AsProvider(lu)); err != nil {
			t.Fatalf("LU S-%d: %v", procs, err)
		}
	}
}

// Property: message volumes are conserved pairwise for random instances.
func TestLUSendRecvVolumesMatchProperty(t *testing.T) {
	f := func(pSel, classSel uint8) bool {
		procs := []int{1, 2, 4, 8}[pSel%4]
		class := []Class{ClassS, ClassW}[classSel%2]
		lu, err := NewLU(class, procs, 2)
		if err != nil {
			return false
		}
		sent := map[[2]int]float64{}
		recvd := map[[2]int]float64{}
		for rank := 0; rank < procs; rank++ {
			st, _ := lu.Rank(rank)
			var a trace.Action
			for {
				ok, err := st.Next(&a)
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				switch a.Kind {
				case trace.Send, trace.ISend:
					sent[[2]int{a.Rank, a.Peer}] += a.Bytes
				case trace.Recv, trace.IRecv:
					recvd[[2]int{a.Peer, a.Rank}] += a.Bytes
				}
			}
		}
		if len(sent) != len(recvd) {
			return false
		}
		for k, v := range sent {
			if math.Abs(recvd[k]-v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLUNeighbors(t *testing.T) {
	lu, err := NewLU(ClassB, 8, 1) // 4x2 grid
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 = (ix 0, iy 0): no north, south=1, no west, east=4.
	n, s, w, e := lu.neighbors(0)
	if n != -1 || s != 1 || w != -1 || e != 4 {
		t.Fatalf("rank0 neighbors = %d,%d,%d,%d", n, s, w, e)
	}
	// Rank 5 = (ix 1, iy 1): north=4, south=6, west=1, east=-1 (py=2).
	n, s, w, e = lu.neighbors(5)
	if n != 4 || s != 6 || w != 1 || e != -1 {
		t.Fatalf("rank5 neighbors = %d,%d,%d,%d", n, s, w, e)
	}
}

func TestLUDimsCoverGrid(t *testing.T) {
	lu, err := NewLU(ClassB, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	px, py := lu.Grid()
	// Sum of nxLoc over a row of ranks must equal n; same for columns.
	totalX := 0
	for ix := 0; ix < px; ix++ {
		nx, _, _ := lu.Dims(ix) // iy = 0 row
		totalX += nx
	}
	if totalX != 102 {
		t.Fatalf("sum nxLoc = %d, want 102", totalX)
	}
	totalY := 0
	for iy := 0; iy < py; iy++ {
		_, ny, _ := lu.Dims(iy * px)
		totalY += ny
	}
	if totalY != 102 {
		t.Fatalf("sum nyLoc = %d, want 102", totalY)
	}
}

// TestLUWorkingSetCacheThresholds verifies the cache-model calibration of
// Sections 2.3/3.4: A-4 fits a 1 MB L2; B-4, C-4 and C-8 do not; every
// studied instance (P >= 8) fits a 2 MB L2.
func TestLUWorkingSetCacheThresholds(t *testing.T) {
	const mb = 1 << 20
	ws := func(class Class, procs int) float64 {
		lu, err := NewLU(class, procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := 0.0
		for r := 0; r < procs; r++ {
			if s := lu.WorkingSet(r); s > w {
				w = s
			}
		}
		return w
	}
	if w := ws(ClassA, 4); w >= 1*mb {
		t.Errorf("A-4 working set %.0f B should fit 1 MB L2", w)
	}
	for _, c := range []struct {
		class Class
		procs int
	}{{ClassB, 4}, {ClassC, 4}, {ClassC, 8}} {
		if w := ws(c.class, c.procs); w < 1*mb {
			t.Errorf("%s-%d working set %.0f B should exceed 1 MB L2", c.class, c.procs, w)
		}
	}
	for _, c := range []struct {
		class Class
		procs int
	}{{ClassB, 8}, {ClassB, 128}, {ClassC, 8}, {ClassC, 128}} {
		if w := ws(c.class, c.procs); w >= 2*mb {
			t.Errorf("%s-%d working set %.0f B should fit 2 MB L2", c.class, c.procs, w)
		}
	}
}

func TestLUMessageSizesEager(t *testing.T) {
	// Wavefront messages must be small (eager); exchange_3 halos large
	// (rendezvous) for class B at 8 procs.
	lu, err := NewLU(ClassB, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := lu.Rank(5) // interior-ish rank
	if err != nil {
		t.Fatal(err)
	}
	var small, large int
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
			if a.Bytes < 65536 {
				small++
			} else {
				large++
			}
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("small=%d large=%d, want both present", small, large)
	}
	if small < 10*large {
		t.Fatalf("small=%d large=%d: wavefront messages should dominate", small, large)
	}
}

func TestLUIterationOverride(t *testing.T) {
	lu1, _ := NewLU(ClassS, 4, 1)
	lu5, _ := NewLU(ClassS, 4, 5)
	if lu1.ItMax() != 1 || lu5.ItMax() != 5 {
		t.Fatalf("itmax = %d,%d", lu1.ItMax(), lu5.ItMax())
	}
	if lu5.BaseInstructions(0) <= lu1.BaseInstructions(0) {
		t.Fatal("more iterations should mean more instructions")
	}
}

func TestLUSingleRankHasNoMessages(t *testing.T) {
	lu, err := NewLU(ClassS, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := lu.Rank(0)
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
			t.Fatalf("single-rank LU emitted %v", a)
		}
	}
}

func TestCGValidationAndBalance(t *testing.T) {
	if _, err := NewCG(ClassB, 6, 0); err == nil {
		t.Error("accepted non-power-of-two procs")
	}
	if _, err := NewCG(Class('Z'), 8, 0); err == nil {
		t.Error("accepted bad class")
	}
	cg, err := NewCG(ClassS, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(AsProvider(cg)); err != nil {
		t.Fatal(err)
	}
}

func TestCGInstructionsMatchAnalytic(t *testing.T) {
	cg, err := NewCG(ClassS, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := cg.Rank(0)
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
	want := cg.BaseInstructions(0)
	if math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("generated %.6e, analytic %.6e", sum, want)
	}
}

func TestWorkloadNames(t *testing.T) {
	lu, _ := NewLU(ClassB, 8, 0)
	if lu.Name() != "LU B-8" {
		t.Fatalf("name = %q", lu.Name())
	}
	cg, _ := NewCG(ClassC, 16, 0)
	if cg.Name() != "CG C-16" {
		t.Fatalf("name = %q", cg.Name())
	}
}

func TestAsProviderStreams(t *testing.T) {
	lu, _ := NewLU(ClassS, 2, 1)
	prov := AsProvider(lu)
	if prov.NumRanks() != 2 {
		t.Fatalf("ranks = %d", prov.NumRanks())
	}
	st, err := prov.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	var a trace.Action
	ok, err := st.Next(&a)
	if err != nil || !ok || a.Kind != trace.Init {
		t.Fatalf("first action = %+v ok=%v err=%v", a, ok, err)
	}
	if _, err := prov.Rank(9); err == nil {
		t.Fatal("expected range error")
	}
}
