package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve runs the max-min solver on a synthetic flow set and returns the
// allocated rates.
func solve(flows []*flow) []float64 {
	e := NewEngine(pairRouter{&Link{Bandwidth: 1, Latency: 0}})
	for _, f := range flows {
		e.addFlow(f)
	}
	e.recomputeShares()
	rates := make([]float64, len(flows))
	for i, f := range flows {
		rates[i] = f.rate
	}
	return rates
}

func mkComm(size float64) *Comm { return &Comm{Size: size} }

func TestMaxMinSingleFlowGetsFullLink(t *testing.T) {
	l := &Link{Name: "l", Bandwidth: 100}
	rates := solve([]*flow{{comm: mkComm(1), links: []*Link{l}, rem: 1}})
	if rates[0] != 100 {
		t.Fatalf("rate = %v, want 100", rates[0])
	}
}

func TestMaxMinEqualSharing(t *testing.T) {
	l := &Link{Name: "l", Bandwidth: 90}
	fs := []*flow{
		{comm: mkComm(1), links: []*Link{l}, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, rem: 1},
	}
	for i, r := range solve(fs) {
		if math.Abs(r-30) > 1e-9 {
			t.Fatalf("rate[%d] = %v, want 30", i, r)
		}
	}
}

func TestMaxMinCapRedistribution(t *testing.T) {
	// Two flows on a 100-link; one capped at 10. The other should get 90.
	l := &Link{Name: "l", Bandwidth: 100}
	fs := []*flow{
		{comm: mkComm(1), links: []*Link{l}, cap: 10, rem: 1},
		{comm: mkComm(1), links: []*Link{l}, rem: 1},
	}
	rates := solve(fs)
	if math.Abs(rates[0]-10) > 1e-9 || math.Abs(rates[1]-90) > 1e-9 {
		t.Fatalf("rates = %v, want [10 90]", rates)
	}
}

func TestMaxMinClassicExample(t *testing.T) {
	// The textbook three-flow example: l1 cap 10 carries f1,f2; l2 cap 5
	// carries f2,f3. Max-min: f2 and f3 get 2.5 (l2 bottleneck), f1 gets 7.5.
	l1 := &Link{Name: "l1", Bandwidth: 10}
	l2 := &Link{Name: "l2", Bandwidth: 5, ID: 1}
	fs := []*flow{
		{comm: mkComm(1), links: []*Link{l1}, rem: 1},
		{comm: mkComm(1), links: []*Link{l1, l2}, rem: 1},
		{comm: mkComm(1), links: []*Link{l2}, rem: 1},
	}
	rates := solve(fs)
	want := []float64{7.5, 2.5, 2.5}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinNoLinksUnbounded(t *testing.T) {
	rates := solve([]*flow{{comm: mkComm(1), rem: 1}})
	if !math.IsInf(rates[0], 1) {
		t.Fatalf("rate = %v, want +Inf for local flow", rates[0])
	}
}

// Property-based test: for random topologies, the allocation must satisfy
// (1) no link is over capacity, (2) every rate is positive, (3) every flow
// is bottlenecked: it is either at its cap or crosses a saturated link
// (otherwise its rate could grow, violating max-min optimality).
func TestMaxMinInvariantsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nLinks := 1 + rng.Intn(6)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = &Link{Name: "l", Bandwidth: 1 + 99*rng.Float64(), ID: i}
		}
		nFlows := 1 + rng.Intn(10)
		fs := make([]*flow, nFlows)
		for i := range fs {
			n := 1 + rng.Intn(nLinks)
			perm := rng.Perm(nLinks)[:n]
			ls := make([]*Link, n)
			for j, k := range perm {
				ls[j] = links[k]
			}
			var cap float64
			if rng.Intn(2) == 0 {
				cap = 0.5 + 49*rng.Float64()
			}
			fs[i] = &flow{comm: mkComm(1), links: ls, cap: cap, rem: 1}
		}
		rates := solve(fs)

		const eps = 1e-6
		// (1) link capacities respected.
		load := map[*Link]float64{}
		for i, fl := range fs {
			for _, l := range fl.links {
				load[l] += rates[i]
			}
		}
		for _, l := range links {
			if load[l] > l.Bandwidth*(1+eps) {
				return false
			}
		}
		// (2) positive rates, caps respected.
		for i, fl := range fs {
			if rates[i] <= 0 {
				return false
			}
			if fl.cap > 0 && rates[i] > fl.cap*(1+eps) {
				return false
			}
		}
		// (3) every flow is bottlenecked somewhere.
		for i, fl := range fs {
			if fl.cap > 0 && rates[i] >= fl.cap*(1-eps) {
				continue
			}
			bottlenecked := false
			for _, l := range fl.links {
				if load[l] >= l.Bandwidth*(1-eps) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
