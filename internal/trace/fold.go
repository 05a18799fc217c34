package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Trace folding: iterative applications produce traces whose bulk is one
// block repeated once per iteration (LU's SSOR steps emit ~1000 identical
// actions 250 times). Folding stores each maximal consecutively-repeated
// block once together with its repetition count, shrinking trace files by
// the iteration count while remaining a plain text format:
//
//	@folded v1
//	p0 compute 956140
//	@loop 248 1030
//	p0 recv p1 2040
//	...1029 more body lines...
//
// A `@loop N L` directive says: the next L action lines repeat N times.
// Loops do not nest. Expansion is streaming — the replayer never
// materializes the unfolded trace.

// foldedHeader is the first line of a folded trace file.
const foldedHeader = "@folded v1"

// foldMinSavings is the minimum number of lines a loop must save to be
// worth the directive.
const foldMinSavings = 8

// foldMaxPeriod bounds the repeated-block length the folder searches for.
const foldMaxPeriod = 8192

// Fold compresses actions by detecting maximal consecutively repeated
// blocks. The result expands to exactly the input sequence (a property the
// tests enforce); folding is lossless.
func Fold(actions []Action) FoldedTrace {
	var blocks []FoldBlock
	var literal []Action
	flush := func() {
		if len(literal) > 0 {
			blocks = append(blocks, FoldBlock{Count: 1, Body: literal})
			literal = nil
		}
	}
	n := len(actions)
	for i := 0; i < n; {
		bestL, bestK := 0, 0
		// Candidate periods: distances to the next occurrences of
		// actions[i]. The first repetition of an iteration block starts
		// with the same action, so this finds application loop periods
		// without quadratic search.
		limit := foldMaxPeriod
		if i+limit > n {
			limit = n - i
		}
		for L := 1; L <= limit/2; L++ {
			if !actions[i+L].Equal(actions[i]) {
				continue
			}
			// Verify how many times the block [i, i+L) repeats.
			k := 1
			for i+(k+1)*L <= n && equalBlocks(actions[i:i+L], actions[i+k*L:i+(k+1)*L]) {
				k++
			}
			if k >= 2 && (k-1)*L >= foldMinSavings && (k-1)*L > (bestK-1)*bestL {
				bestL, bestK = L, k
			}
			// The first found period with a valid fold is almost always
			// the application loop; keep scanning only while no fold
			// qualifies, to stay near-linear.
			if bestK >= 2 {
				break
			}
		}
		if bestK >= 2 {
			flush()
			body := make([]Action, bestL)
			copy(body, actions[i:i+bestL])
			blocks = append(blocks, FoldBlock{Count: bestK, Body: body})
			i += bestL * bestK
			continue
		}
		literal = append(literal, actions[i])
		i++
	}
	flush()
	return FoldedTrace{Blocks: blocks}
}

func equalBlocks(a, b []Action) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// FoldBlock is Count consecutive repetitions of Body.
type FoldBlock struct {
	Count int
	Body  []Action
}

// FoldedTrace is a losslessly folded action sequence.
type FoldedTrace struct {
	Blocks []FoldBlock
}

// Len returns the expanded action count.
func (f FoldedTrace) Len() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.Count * len(b.Body)
	}
	return n
}

// Lines returns the folded line count (directives + body lines).
func (f FoldedTrace) Lines() int {
	n := 1 // header
	for _, b := range f.Blocks {
		if b.Count > 1 {
			n++
		}
		n += len(b.Body)
	}
	return n
}

// Expand materializes the original sequence.
func (f FoldedTrace) Expand() []Action {
	out := make([]Action, 0, f.Len())
	for _, b := range f.Blocks {
		for k := 0; k < b.Count; k++ {
			out = append(out, b.Body...)
		}
	}
	return out
}

// WriteFolded folds actions and writes the folded text form.
func WriteFolded(w io.Writer, actions []Action) error {
	f := Fold(actions)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, foldedHeader); err != nil {
		return err
	}
	for _, b := range f.Blocks {
		if b.Count > 1 {
			if _, err := fmt.Fprintf(bw, "@loop %d %d\n", b.Count, len(b.Body)); err != nil {
				return err
			}
		}
		for _, a := range b.Body {
			if err := a.Validate(); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(bw, a.String()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// NewExpandingReader reads a trace that may be folded (detected via the
// @folded header) or plain, expanding loops as it streams. filter < 0 keeps
// all ranks.
func NewExpandingReader(r io.Reader, filter int) Stream {
	return NewExpandingWorldReader(r, filter, 0)
}

// NewExpandingWorldReader is NewExpandingReader with communicator-sized
// validation: world > 0 rejects out-of-range peers, roots, and volume-vector
// lengths at read time, with the offending line number.
func NewExpandingWorldReader(r io.Reader, filter, world int) Stream {
	rd := &Reader{in: lineReader{src: r}, filter: filter, world: world}
	if rd.in.hasPrefix(foldedHeader) {
		rd.folded = true
		// Skip the header line. A read error is sticky: the first Next
		// reports it.
		rd.in.next()
	}
	return rd
}
