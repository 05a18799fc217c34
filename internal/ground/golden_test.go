package ground

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/instrument"
	"tireplay/internal/npb"
	"tireplay/internal/sim"
)

// The ground golden corpus pins every emulated run of the accuracy
// pipeline's reference: wall time, per-rank compute seconds and engine
// counters, bit for bit. The LU, CG, EP and MG entries were recorded from
// the goroutine-driven emulation this package ran before ranks were lowered
// through core, which could not emulate BT, SP and FT; their entries were
// added once TestGroundMatchesReplayWhenGapsClosed vouched for them.
// Regenerate only for an intended change of behaviour:
//
//	go test ./internal/ground -run Golden -update

var update = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const groundGoldenPath = "testdata/ground_golden.json"

// groundGolden is one corpus entry. Floats are IEEE-754 bits in hex.
type groundGolden struct {
	Name           string    `json:"name"`
	Time           string    `json:"time"`
	ComputeSeconds []string  `json:"compute_seconds"`
	Engine         sim.Stats `json:"engine"`
}

// goldenWorkloads builds the class S, 4-rank instances the corpus covers.
var goldenWorkloads = []struct {
	name string
	mk   func() (npb.Workload, error)
}{
	{"lu", func() (npb.Workload, error) { return npb.NewLU(npb.ClassS, 4, 0) }},
	{"cg", func() (npb.Workload, error) { return npb.NewCG(npb.ClassS, 4, 0) }},
	{"ep", func() (npb.Workload, error) { return npb.NewEP(npb.ClassS, 4) }},
	{"mg", func() (npb.Workload, error) { return npb.NewMG(npb.ClassS, 4, 0) }},
	{"bt", func() (npb.Workload, error) { return npb.NewBT(npb.ClassS, 4, 0) }},
	{"sp", func() (npb.Workload, error) { return npb.NewSP(npb.ClassS, 4, 0) }},
	{"ft", func() (npb.Workload, error) { return npb.NewFT(npb.ClassS, 4, 0) }},
}

func hexBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// groundGoldenRuns emulates every corpus case in a fixed order.
func groundGoldenRuns(t *testing.T) []groundGolden {
	t.Helper()
	var out []groundGolden
	for _, c := range []*Cluster{Bordereau(), Graphene()} {
		for _, wl := range goldenWorkloads {
			for _, mode := range []instrument.Mode{instrument.None, instrument.Minimal, instrument.Fine} {
				for _, compile := range []instrument.Compile{instrument.O0, instrument.O3} {
					w, err := wl.mk()
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(w, c.InstrConfig(mode, compile, npb.ClassS))
					if err != nil {
						t.Fatalf("%s %s: %v", c.Name, w.Name(), err)
					}
					g := groundGolden{
						Name:   fmt.Sprintf("%s/%s/%s/%s", c.Name, wl.name, mode, compile),
						Time:   hexBits(res.Time),
						Engine: res.Engine,
					}
					for _, s := range res.ComputeSeconds {
						g.ComputeSeconds = append(g.ComputeSeconds, hexBits(s))
					}
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestGroundGoldenCorpus requires every emulated run to reproduce its
// corpus entry exactly.
func TestGroundGoldenCorpus(t *testing.T) {
	got := groundGoldenRuns(t)
	if *update {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(groundGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(groundGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []groundGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]groundGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(byName) != len(got) {
		t.Errorf("corpus has %d entries, the emulation %d cases", len(byName), len(got))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: missing from %s (regenerate with -update)", g.Name, groundGoldenPath)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s diverges from the corpus:\n got: %s\nwant: %s", g.Name, gj, wj)
		}
	}
}

// TestGroundMatchesReplayWhenGapsClosed closes every gap the emulation models
// on purpose — rate jitter, the out-of-cache slowdown, instrumentation and
// compiler scaling — and requires ground truth to equal SMPI replay of the
// same workload under the cluster's own MPI model, bit for bit. What is
// left is the shared lowering, so this is the oracle for the corpus entries
// of workloads the goroutine emulation never ran.
func TestGroundMatchesReplayWhenGapsClosed(t *testing.T) {
	for _, c := range []*Cluster{Bordereau(), Graphene()} {
		c.JitterAmp = 0
		c.OutOfCacheFactor = 1
		for _, wl := range goldenWorkloads {
			t.Run(c.Name+"/"+wl.name, func(t *testing.T) {
				w, err := wl.mk()
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Run(w, instrument.Config{Mode: instrument.None, Compile: instrument.O0})
				if err != nil {
					t.Fatal(err)
				}
				plat, model, err := c.Platform(w.Ranks())
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Replay(npb.AsProvider(w), plat, core.Config{MPI: c.MPI, Network: model})
				if err != nil {
					t.Fatal(err)
				}
				if got.Time != want.SimulatedTime {
					t.Errorf("ground time %v, replay %v", got.Time, want.SimulatedTime)
				}
				if got.Engine != want.Engine {
					t.Errorf("engine stats diverge:\n ground: %+v\n replay: %+v", got.Engine, want.Engine)
				}
			})
		}
	}
}
