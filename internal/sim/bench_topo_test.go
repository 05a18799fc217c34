// Topology-zoo kernel benchmarks: the solver scaling of the structured
// platforms (fat tree, dragonfly, torus). Like the other large benchmarks
// they live in the external test package so they can drive the kernel
// through internal/mpi and internal/platform the way real replays do.
package sim_test

import (
	"fmt"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
)

// topoPlatform builds the benchmark shape of one zoo topology at the given
// rank count. The shapes keep NIC bandwidth below fabric bandwidth so the
// interesting contention happens inside the interconnect.
func topoPlatform(tb testing.TB, topo string, ranks int) *platform.Platform {
	tb.Helper()
	link := struct{ bw, lat float64 }{1.25e9, 1e-6}
	spec := platform.Spec{
		Topology: topo, Speed: 1e9,
		LinkBandwidth: link.bw, LinkLatency: link.lat,
		BackboneBandwidth: 4 * link.bw, BackboneLatency: 2 * link.lat,
	}
	switch topo {
	case "fattree":
		shapes := map[int][2]int{32: {2, 5}, 256: {16, 2}, 1024: {32, 2}}
		s, ok := shapes[ranks]
		if !ok {
			tb.Fatalf("no fattree shape for %d ranks", ranks)
		}
		spec.Name, spec.Radix, spec.Levels = "ft", s[0], s[1]
	case "dragonfly":
		shapes := map[int][3]int{32: {2, 4, 4}, 256: {8, 8, 4}, 1024: {16, 8, 8}}
		s, ok := shapes[ranks]
		if !ok {
			tb.Fatalf("no dragonfly shape for %d ranks", ranks)
		}
		spec.Name, spec.Groups, spec.RoutersPerGroup, spec.HostsPerRouter = "df", s[0], s[1], s[2]
		spec.Routing = "adaptive"
		spec.LocalBandwidth, spec.LocalLatency = 4*link.bw, 2*link.lat
		spec.GlobalBandwidth, spec.GlobalLatency = 8*link.bw, 1e-5
	case "torus":
		shapes := map[int][]int{32: {4, 4, 2}, 256: {16, 16}, 1024: {16, 8, 8}}
		s, ok := shapes[ranks]
		if !ok {
			tb.Fatalf("no torus shape for %d ranks", ranks)
		}
		spec.Name, spec.TorusDims = "tor", s
	default:
		tb.Fatalf("unknown topology %q", topo)
	}
	p, _, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	if p.Size() != ranks {
		tb.Fatalf("%s shape yields %d hosts, want %d", topo, p.Size(), ranks)
	}
	return p
}

// runTopoAlltoAll drives the desynchronized pairwise alltoall of
// BenchmarkLargeAlltoAll on a zoo platform under the continuation scheduler.
// Above 256 ranks the exchange is windowed to 32 rounds per rank: on the
// blocking topologies a full 1023-round exchange couples hundreds of flows
// into single sub-components (the dragonfly run takes about a minute alone
// on a 2-vCPU VM), and the first rounds already exhibit the per-round
// component structure the benchmark gates. The window is part of the
// benchmark's definition, not a silent cap — 256-rank variants stay
// all-to-all in full.
func runTopoAlltoAll(tb testing.TB, plat *platform.Platform) sim.Stats {
	tb.Helper()
	ranks := plat.Size()
	rounds := ranks - 1
	if ranks > 256 {
		rounds = 32
	}
	e := sim.NewEngine(plat)
	w, err := mpi.NewWorld(e, plat.Hosts(), mpi.ModelConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for rank := 0; rank < ranks; rank++ {
		me := rank
		tr := w.TaskRank(rank)
		i := 0
		w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
			if i++; i > rounds {
				return false, nil
			}
			dst := (me + i) % ranks
			src := (me - i + ranks) % ranks
			tr.Isend(p, dst, alltoallSize(me, dst, ranks))
			tr.Recv(p, src)
			p.WaitPending()
			return true, nil
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return e.Stats()
}

// runTopoNeighbor drives a ring nearest-neighbor exchange (the halo pattern
// of stencil codes, mapped to consecutive ranks): every round each rank
// swaps jittered payloads with both ring neighbors. On the torus,
// consecutive ranks are grid neighbors in the first dimension, so this is
// the topology's best case; on the fat tree most exchanges stay under one
// tier-1 switch; on the dragonfly they stay inside a group.
func runTopoNeighbor(tb testing.TB, plat *platform.Platform) sim.Stats {
	tb.Helper()
	ranks := plat.Size()
	const rounds = 16
	e := sim.NewEngine(plat)
	w, err := mpi.NewWorld(e, plat.Hosts(), mpi.ModelConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for rank := 0; rank < ranks; rank++ {
		me := rank
		up := (me + 1) % ranks
		dn := (me - 1 + ranks) % ranks
		tr := w.TaskRank(rank)
		round := 0
		w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
			if round++; round > rounds {
				return false, nil
			}
			tr.Isend(p, up, alltoallSize(me, up, ranks)*float64(1+round%3))
			tr.Isend(p, dn, alltoallSize(me, dn, ranks)*float64(1+round%3))
			tr.Recv(p, dn)
			tr.Recv(p, up)
			p.WaitPending()
			return true, nil
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return e.Stats()
}

// BenchmarkTopologies measures the solver's behaviour on the structured
// platforms: an adversarial desynchronized alltoall and a local
// nearest-neighbor exchange, per topology, at 256 and 1024 ranks. The
// reported metrics expose what the routing structure does to the sharing
// solver — how many flows each recompute re-solves and how large the
// biggest sub-component grows. CI gates the 1024-rank variants and the
// 256-rank alltoall (BENCH_baseline.json); the dragonfly and torus alltoall
// variants slow by 1.8x to 13x when the solver re-solves whole connected
// components instead of the sub-components links that can saturate join.
func BenchmarkTopologies(b *testing.B) {
	patterns := []struct {
		name string
		run  func(testing.TB, *platform.Platform) sim.Stats
	}{
		{"alltoall", runTopoAlltoAll},
		{"neighbor", runTopoNeighbor},
	}
	for _, topo := range []string{"fattree", "dragonfly", "torus"} {
		for _, pat := range patterns {
			for _, ranks := range []int{256, 1024} {
				b.Run(fmt.Sprintf("topo=%s/pattern=%s/ranks=%d", topo, pat.name, ranks), func(b *testing.B) {
					var st sim.Stats
					for i := 0; i < b.N; i++ {
						st = pat.run(b, topoPlatform(b, topo, ranks))
					}
					b.ReportMetric(float64(st.FlowsResolved)/float64(st.ShareRecomputes), "flows-resolved/recompute")
					b.ReportMetric(float64(st.MaxComponentFlows), "max-component-flows")
				})
			}
		}
	}
}

// TestTopologySchedulersAgree replays the alltoall benchmark workload at 32
// ranks on every zoo topology and requires the end time and kernel counters
// the goroutine-per-rank scheduler recorded before it was deleted — the
// same parity contract the crossbar suite pins, over structured routes.
func TestTopologySchedulersAgree(t *testing.T) {
	recorded := map[string]struct {
		end   float64
		stats sim.Stats
	}{
		"fattree":   {0.0035450428813991043, sim.Stats{ContextSwitches: 1513, TimersFired: 992, CommsStarted: 992, CommsCompleted: 992, ShareRecomputes: 1643, Events: 1644, ComponentsResolved: 992, FlowsResolved: 992, MaxComponentFlows: 1}},
		"dragonfly": {0.003808542247209014, sim.Stats{ContextSwitches: 1507, TimersFired: 992, CommsStarted: 992, CommsCompleted: 992, ShareRecomputes: 1653, Events: 1654, ComponentsResolved: 1601, FlowsResolved: 5023, MaxComponentFlows: 16}},
		"torus":     {0.003297981166340106, sim.Stats{ContextSwitches: 1526, TimersFired: 992, CommsStarted: 992, CommsCompleted: 992, ShareRecomputes: 1631, Events: 1632, ComponentsResolved: 992, FlowsResolved: 992, MaxComponentFlows: 1}},
	}
	for _, topo := range []string{"fattree", "dragonfly", "torus"} {
		t.Run(topo, func(t *testing.T) {
			const ranks = 32
			plat := topoPlatform(t, topo, ranks)
			e := sim.NewEngine(plat)
			w, err := mpi.NewWorld(e, plat.Hosts(), mpi.ModelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < ranks; rank++ {
				me := rank
				tr := w.TaskRank(rank)
				i := 0
				w.SpawnProg(rank, func(p *sim.Prog) (bool, error) {
					if i++; i >= ranks {
						return false, nil
					}
					dst := (me + i) % ranks
					src := (me - i + ranks) % ranks
					tr.Isend(p, dst, alltoallSize(me, dst, ranks))
					tr.Recv(p, src)
					p.WaitPending()
					return true, nil
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			want := recorded[topo]
			if e.Now() != want.end {
				t.Fatalf("end time %v, recorded %v", e.Now(), want.end)
			}
			if st := e.Stats(); st != want.stats {
				t.Fatalf("stats diverge:\n got:      %+v\n recorded: %+v", st, want.stats)
			}
		})
	}
}
