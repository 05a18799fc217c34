package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// keyLess is the heaps' order, (key, seq), written out independently of
// timer.earlier and flow.earlier.
func keyLess(k1 float64, s1 int64, k2 float64, s2 int64) bool {
	return k1 < k2 || k1 == k2 && s1 < s2
}

// Keys are drawn from a small set so that ties, which only seq breaks, are
// common.
var heapKeys = []float64{0, 0.5, 1, 1, 2, 3.25, math.Inf(1)}

// TestTimerHeapMatchesSortedReference drives the timer heap through long
// random push/pop sequences. After every operation the heap must satisfy
// the heap order, and every pop must return the (deadline, seq) minimum of
// a plain-slice reference.
func TestTimerHeapMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	procs := []*Proc{{Name: "a"}, {Name: "b"}}
	comms := []*Comm{{ID: 1}, {ID: 2}}
	for run := 0; run < 50; run++ {
		var h timerHeap
		var ref []timer
		var seq int64
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.IntN(100) < 55 {
				seq++
				tm := timer{deadline: heapKeys[rng.IntN(len(heapKeys))], seq: seq}
				if rng.IntN(2) == 0 {
					tm.proc = procs[rng.IntN(len(procs))]
				} else {
					tm.comm = comms[rng.IntN(len(comms))]
				}
				h.push(tm)
				ref = append(ref, tm)
			} else {
				min := 0
				for i, r := range ref {
					if keyLess(r.deadline, r.seq, ref[min].deadline, ref[min].seq) {
						min = i
					}
				}
				if got := h.pop(); got != ref[min] {
					t.Fatalf("run %d op %d: pop = %+v, want %+v", run, op, got, ref[min])
				}
				ref = slices.Delete(ref, min, min+1)
			}
			if len(h) != len(ref) {
				t.Fatalf("run %d op %d: heap holds %d timers, reference %d", run, op, len(h), len(ref))
			}
			for i := 1; i < len(h); i++ {
				if p := (i - 1) / 2; keyLess(h[i].deadline, h[i].seq, h[p].deadline, h[p].seq) {
					t.Fatalf("run %d op %d: slot %d precedes its parent %d", run, op, i, p)
				}
			}
		}
	}
}

// TestFlowHeapMatchesSortedReference drives the completion heap through
// long random sequences of push, fix after a change of finish, remove and
// pop. After every operation the heap must satisfy the heap order, every
// flow in it must record its slot in heapIdx and every flow outside it -1,
// and every pop must return the (finish, seq) minimum of a plain-slice
// reference.
func TestFlowHeapMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	key := func() float64 { return heapKeys[rng.IntN(len(heapKeys))] }
	for run := 0; run < 50; run++ {
		var h flowHeap
		var ref, out []*flow
		var seq int64
		for op := 0; op < 2000; op++ {
			switch k := rng.IntN(100); {
			case len(ref) == 0 || k < 40:
				seq++
				f := &flow{finish: key(), seq: seq, heapIdx: -1}
				h.push(f)
				ref = append(ref, f)
			case k < 65:
				f := ref[rng.IntN(len(ref))]
				f.finish = key()
				h.fix(f)
			case k < 80:
				i := rng.IntN(len(ref))
				h.remove(ref[i])
				out = append(out, ref[i])
				ref = slices.Delete(ref, i, i+1)
			default:
				min := 0
				for i, f := range ref {
					if keyLess(f.finish, f.seq, ref[min].finish, ref[min].seq) {
						min = i
					}
				}
				if got := h.pop(); got != ref[min] {
					t.Fatalf("run %d op %d: pop = (%g, %d), want (%g, %d)",
						run, op, got.finish, got.seq, ref[min].finish, ref[min].seq)
				}
				out = append(out, ref[min])
				ref = slices.Delete(ref, min, min+1)
			}
			if len(h) != len(ref) {
				t.Fatalf("run %d op %d: heap holds %d flows, reference %d", run, op, len(h), len(ref))
			}
			for i, f := range h {
				if f.heapIdx != i {
					t.Fatalf("run %d op %d: flow in slot %d records heapIdx %d", run, op, i, f.heapIdx)
				}
				if p := (i - 1) / 2; i > 0 && keyLess(f.finish, f.seq, h[p].finish, h[p].seq) {
					t.Fatalf("run %d op %d: slot %d precedes its parent %d", run, op, i, p)
				}
			}
			for _, f := range out {
				if f.heapIdx != -1 {
					t.Fatalf("run %d op %d: flow (%g, %d) left the heap but records heapIdx %d",
						run, op, f.finish, f.seq, f.heapIdx)
				}
			}
		}
	}
}
