package sim

import (
	"fmt"
	"math"
	"testing"

	"tireplay/internal/stats"
)

// referenceShares is the oracle for the engine's solver: one global pass of
// progressive filling over the complete flow set, map-based, with no
// components and no link pruning. It applies the solver's tie rule — a level
// fixes exactly the unfixed flows whose cap or link fair share is no larger
// than the level, on the shares as they stood at the level's start, and
// consumes them together — so the incremental, per-component, pruned solver
// must reproduce its allocation bit for bit after any sequence of arrivals
// and departures.
func referenceShares(flows []*flow) []float64 {
	rates := make([]float64, len(flows))
	type scratch struct {
		rem float64
		n   int
	}
	states := make(map[*Link]*scratch)
	for _, f := range flows {
		for _, l := range f.links {
			s, ok := states[l]
			if !ok {
				s = &scratch{rem: l.Bandwidth}
				states[l] = s
			}
			s.n++
		}
	}
	fixed := make([]bool, len(flows))
	for unfixed := len(flows); unfixed > 0; {
		level := math.Inf(1)
		for _, s := range states {
			if s.n > 0 {
				if share := s.rem / float64(s.n); share < level {
					level = share
				}
			}
		}
		for i, f := range flows {
			if !fixed[i] && f.cap > 0 && f.cap < level {
				level = f.cap
			}
		}
		var at []int
		for i, f := range flows {
			if fixed[i] {
				continue
			}
			constrained := math.IsInf(level, 1) || f.cap > 0 && f.cap <= level
			for _, l := range f.links {
				if s := states[l]; s.rem/float64(s.n) <= level {
					constrained = true
				}
			}
			if constrained {
				at = append(at, i)
			}
		}
		for _, i := range at {
			rates[i] = level
			fixed[i] = true
			unfixed--
			for _, l := range flows[i].links {
				s := states[l]
				s.rem -= level
				if s.rem < 0 {
					s.rem = 0
				}
				s.n--
			}
		}
	}
	return rates
}

// TestIncrementalSolverMatchesReference drives randomized flow
// arrival/departure sequences through the incremental component solver and
// checks after every mutation that each active flow's rate is bit-identical
// to a from-scratch progressive filling of the full flow set. Its symmetric
// trials are tie-heavy: on them, a tie rule with a tolerance, or one that
// consumes a level's flows one at a time, makes a flow's rate depend on
// which other flows are solved with it.
func TestIncrementalSolverMatchesReference(t *testing.T) {
	rng := stats.NewRNG(0x5eed)
	trials, symmetric := 60, 2000
	if testing.Short() {
		trials, symmetric = 15, 500
	}
	// Symmetric trials draw bandwidths and caps from small tables, so fair
	// shares tie across links and caps (see checkMaxMinSequence).
	seq := make([]byte, 2*fuzzMaxOps)
	for trial := 0; trial < symmetric; trial++ {
		for i := range seq {
			seq[i] = byte(rng.Uint64())
		}
		if err := checkMaxMinSequence(seq); err != nil {
			t.Fatalf("symmetric trial %d: %v", trial, err)
		}
	}
	for trial := 0; trial < trials; trial++ {
		nLinks := 2 + int(rng.Uint64()%10)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = &Link{Name: fmt.Sprintf("l%d", i), Bandwidth: 1 + 99*rng.Float64()}
		}
		e := NewEngine(pairRouter{links[0]})
		var live []*flow
		for step := 0; step < 80; step++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				maxLinks := 3
				if nLinks < maxLinks {
					maxLinks = nLinks
				}
				n := 1 + int(rng.Uint64()%uint64(maxLinks))
				seen := map[int]bool{}
				var ls []*Link
				for len(ls) < n {
					k := int(rng.Uint64() % uint64(nLinks))
					if !seen[k] {
						seen[k] = true
						ls = append(ls, links[k])
					}
				}
				var cap float64
				if rng.Float64() < 0.4 {
					cap = 0.5 + 49*rng.Float64()
				}
				f := &flow{comm: mkComm(1e6), links: ls, cap: cap, rem: 1e6}
				e.addFlow(f)
				live = append(live, f)
			} else {
				i := int(rng.Uint64() % uint64(len(live)))
				e.removeFlow(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			e.recomputeShares()
			want := referenceShares(live)
			for i, f := range live {
				if f.rate != want[i] {
					t.Fatalf("trial %d step %d: flow %d rate = %v, want %v (bit-identical)",
						trial, step, i, f.rate, want[i])
				}
			}
		}
	}
}

// crossRouter is a full-bisection test topology: every host owns an uplink
// and a downlink, and a fraction of the pairs additionally cross a shared
// backbone, so concurrent transfers form several connected components of
// varying size.
type crossRouter struct {
	up, down []*Link
	backbone *Link
	hosts    map[*Host]int
}

func (r crossRouter) Route(buf []*Link, src, dst *Host) Route {
	s, d := r.hosts[src], r.hosts[dst]
	n := len(buf)
	buf = append(buf, r.up[s])
	if (s+d)%3 == 0 {
		buf = append(buf, r.backbone)
	}
	buf = append(buf, r.down[d])
	lat := 0.0
	for _, l := range buf[n:] {
		lat += l.Latency
	}
	return Route{Links: buf, Latency: lat}
}

// runEquivalenceWorkload executes one randomized multi-component workload
// and returns the end time plus every transfer's finish time.
func runEquivalenceWorkload(seed uint64, opts ...Option) (float64, []float64) {
	rng := stats.NewRNG(seed)
	n := 6 + int(rng.Uint64()%6) // sender/receiver pairs
	r := crossRouter{
		backbone: &Link{Name: "bb", Bandwidth: 5e7 * (1 + rng.Float64()), Latency: 1e-5},
		hosts:    make(map[*Host]int),
	}
	hosts := make([]*Host, 2*n)
	for i := range hosts {
		hosts[i] = &Host{Name: fmt.Sprintf("h%d", i), Speed: 1e9}
		r.hosts[hosts[i]] = i
	}
	for i := 0; i < 2*n; i++ {
		r.up = append(r.up, &Link{Name: fmt.Sprintf("u%d", i), Bandwidth: 1e7 * (1 + rng.Float64()), Latency: 1e-6})
		r.down = append(r.down, &Link{Name: fmt.Sprintf("d%d", i), Bandwidth: 1e7 * (1 + rng.Float64()), Latency: 1e-6})
	}
	// Pre-generate the whole workload so both engine configurations replay
	// the exact same program.
	rounds := 4 + int(rng.Uint64()%4)
	sizes := make([][]float64, n)
	pauses := make([][]float64, n)
	for i := range sizes {
		sizes[i] = make([]float64, rounds)
		pauses[i] = make([]float64, rounds)
		for k := range sizes[i] {
			sizes[i][k] = 1e3 + 1e6*rng.Float64()
			pauses[i][k] = 1e-4 * rng.Float64()
		}
	}

	e := NewEngine(r, opts...)
	mb := boxes(e, n)
	// A blocking send's sender resumes the moment its transfer completes,
	// so the time each send returns is that transfer's finish time.
	perSender := make([][]float64, n)
	for i := 0; i < n; i++ {
		var send, recv []func(*Prog)
		for k := 0; k < rounds; k++ {
			pause, size := pauses[i][k], sizes[i][k]
			send = append(send,
				func(p *Prog) { p.Sleep(pause); put(p, mb[i], size) },
				func(*Prog) { perSender[i] = append(perSender[i], e.Now()) })
			recv = append(recv, func(p *Prog) { get(p, mb[i]) })
		}
		e.SpawnProg(fmt.Sprintf("s%d", i), hosts[i], script(send...))
		e.SpawnProg(fmt.Sprintf("r%d", i), hosts[n+i], script(recv...))
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	var finishes []float64
	for _, fs := range perSender {
		finishes = append(finishes, fs...)
	}
	return e.Now(), finishes
}

// TestEngineIncrementalEquivalence runs full simulations under the
// incremental solver and the from-scratch reference mode and requires
// bit-identical simulated times — end time and every transfer's finish.
func TestEngineIncrementalEquivalence(t *testing.T) {
	seeds := []uint64{1, 2, 3, 7, 11, 13, 42, 1e6 + 7}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		endInc, finInc := runEquivalenceWorkload(seed)
		endRef, finRef := runEquivalenceWorkload(seed, WithFromScratchSharing())
		if endInc != endRef {
			t.Fatalf("seed %d: end time %v (incremental) != %v (from-scratch)", seed, endInc, endRef)
		}
		if len(finInc) != len(finRef) {
			t.Fatalf("seed %d: %d comms (incremental) != %d (from-scratch)", seed, len(finInc), len(finRef))
		}
		for i := range finInc {
			if finInc[i] != finRef[i] {
				t.Fatalf("seed %d: comm %d finish %v != %v", seed, i, finInc[i], finRef[i])
			}
		}
	}
}

// TestIncrementalResolvesFewerFlows checks the point of the exercise: on a
// multi-component workload the incremental solver passes far fewer flows
// through progressive filling than the from-scratch mode does, while
// (per the equivalence tests) producing the same times.
func TestIncrementalResolvesFewerFlows(t *testing.T) {
	run := func(opts ...Option) Stats {
		e, hosts := equivalenceEngine(opts...)
		n := len(hosts) / 2
		mb := boxes(e, n)
		for i := 0; i < n; i++ {
			var send, recv []func(*Prog)
			for k := 0; k < 6; k++ {
				size := 1e5 * float64(1+(i+k)%5)
				send = append(send, func(p *Prog) { put(p, mb[i], size) })
				recv = append(recv, func(p *Prog) { get(p, mb[i]) })
			}
			e.SpawnProg(fmt.Sprintf("s%d", i), hosts[i], script(send...))
			e.SpawnProg(fmt.Sprintf("r%d", i), hosts[n+i], script(recv...))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	inc := run()
	ref := run(WithFromScratchSharing())
	if inc.FlowsResolved >= ref.FlowsResolved {
		t.Fatalf("incremental resolved %d flows, from-scratch %d: expected strictly fewer",
			inc.FlowsResolved, ref.FlowsResolved)
	}
	if inc.ComponentsResolved == 0 {
		t.Fatal("no components recorded by the incremental solver")
	}
}

// equivalenceEngine builds a 16-pair full-bisection engine for counter and
// stress tests.
func equivalenceEngine(opts ...Option) (*Engine, []*Host) {
	const n = 16
	r := crossRouter{
		backbone: &Link{Name: "bb", Bandwidth: 1e9, Latency: 1e-5},
		hosts:    make(map[*Host]int),
	}
	hosts := make([]*Host, 2*n)
	for i := range hosts {
		hosts[i] = &Host{Name: fmt.Sprintf("h%d", i), Speed: 1e9}
		r.hosts[hosts[i]] = i
	}
	for i := 0; i < 2*n; i++ {
		r.up = append(r.up, &Link{Name: fmt.Sprintf("u%d", i), Bandwidth: 1e7, Latency: 1e-6})
		r.down = append(r.down, &Link{Name: fmt.Sprintf("d%d", i), Bandwidth: 1e7, Latency: 1e-6})
	}
	return NewEngine(r, opts...), hosts
}
