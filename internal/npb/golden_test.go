package npb

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"tireplay/internal/trace"
)

// The stream golden corpus pins every operation the seven models emit:
// per instance and rank, the action count and an FNV-64a hash over the
// bits of every field of every action and of its call count. Regenerate
// only for an intended change of behaviour:
//
//	go test ./internal/npb -run StreamsGolden -update

var update = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const streamsGoldenPath = "testdata/streams_golden.json"

// streamGolden is one corpus entry; Hashes are hex FNV-64a sums.
type streamGolden struct {
	Name    string   `json:"name"`
	Actions []int    `json:"actions"`
	Hashes  []string `json:"hashes"`
}

// goldenModels builds one instance of each model; EP has no iterations.
var goldenModels = []func(c Class, procs, iters int) (Workload, error){
	func(c Class, procs, iters int) (Workload, error) { return NewLU(c, procs, iters) },
	func(c Class, procs, iters int) (Workload, error) { return NewCG(c, procs, iters) },
	func(c Class, procs, iters int) (Workload, error) { return NewEP(c, procs) },
	func(c Class, procs, iters int) (Workload, error) { return NewMG(c, procs, iters) },
	func(c Class, procs, iters int) (Workload, error) { return NewBT(c, procs, iters) },
	func(c Class, procs, iters int) (Workload, error) { return NewSP(c, procs, iters) },
	func(c Class, procs, iters int) (Workload, error) { return NewFT(c, procs, iters) },
}

// hashAction folds every field of a and its call count into h.
func hashAction(h hash.Hash64, a *trace.Action, calls float64) {
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(a.Rank))
	word(uint64(a.Kind))
	word(uint64(a.Peer))
	word(uint64(a.Root))
	word(uint64(a.Count))
	word(math.Float64bits(a.Instructions))
	word(math.Float64bits(a.Bytes))
	word(uint64(len(a.Volumes)))
	for _, v := range a.Volumes {
		word(math.Float64bits(v))
	}
	word(math.Float64bits(calls))
}

// streamsGoldenRuns drains every corpus instance in a fixed order: all
// seven models at classes S and A on 1, 4 and 16 ranks, three iterations
// at class S and two at class A.
func streamsGoldenRuns(t *testing.T) []streamGolden {
	t.Helper()
	var out []streamGolden
	for _, mk := range goldenModels {
		for _, c := range []struct {
			class Class
			iters int
		}{{ClassS, 3}, {ClassA, 2}} {
			for _, procs := range []int{1, 4, 16} {
				w, err := mk(c.class, procs, c.iters)
				if err != nil {
					t.Fatal(err)
				}
				g := streamGolden{Name: fmt.Sprintf("%s x%d", w.Name(), c.iters)}
				for rank := 0; rank < procs; rank++ {
					st, err := w.Rank(rank)
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					n := 0
					var a trace.Action
					for {
						ok, err := st.Next(&a)
						if err != nil {
							t.Fatalf("%s rank %d: %v", g.Name, rank, err)
						}
						if !ok {
							break
						}
						hashAction(h, &a, st.Calls())
						n++
					}
					g.Actions = append(g.Actions, n)
					g.Hashes = append(g.Hashes, fmt.Sprintf("%016x", h.Sum64()))
				}
				out = append(out, g)
			}
		}
	}
	return out
}

// TestStreamsGolden requires every model's streams to reproduce the corpus
// exactly: same actions, same fields, same call counts.
func TestStreamsGolden(t *testing.T) {
	got := streamsGoldenRuns(t)
	if *update {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(streamsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []streamGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d entries, the models %d instances", len(want), len(got))
	}
	total := 0
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("entry %d is %q, corpus has %q", i, g.Name, w.Name)
		}
		for r := range g.Actions {
			total += g.Actions[r]
			if r >= len(w.Actions) || g.Actions[r] != w.Actions[r] || g.Hashes[r] != w.Hashes[r] {
				t.Errorf("%s rank %d: %d actions hash %s, corpus %v %v",
					g.Name, r, g.Actions[r], g.Hashes[r], w.Actions, w.Hashes)
				break
			}
		}
		if len(g.Actions) != len(w.Actions) {
			t.Errorf("%s: %d ranks, corpus %d", g.Name, len(g.Actions), len(w.Actions))
		}
	}
	t.Logf("%d instances, %d actions", len(got), total)
}
