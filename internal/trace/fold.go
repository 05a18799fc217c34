package trace

import (
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

// foldedStream serves a folded trace one action at a time, without
// expanding it. Its actions were checked when the trace was folded; their
// vectors are the trace's, handed out read-only.
type foldedStream struct {
	blocks   []FoldBlock
	rep, pos int // blocks[0].Body[pos] of repetition rep is served next
}

// Next implements Stream.
func (s *foldedStream) Next(a *Action) (bool, error) {
	for len(s.blocks) > 0 {
		if b := &s.blocks[0]; s.rep < b.Count && s.pos < len(b.Body) {
			*a = b.Body[s.pos]
			if s.pos++; s.pos == len(b.Body) {
				s.rep, s.pos = s.rep+1, 0
			}
			return true, nil
		}
		s.blocks, s.rep, s.pos = s.blocks[1:], 0, 0
	}
	return false, nil
}

// WriteFolded folds actions and writes the folded text form.
func WriteFolded(w io.Writer, actions []Action) error {
	f := Fold(actions)
	tw := newTextWriter(w)
	if _, err := fmt.Fprintln(tw, foldedHeader); err != nil {
		return err
	}
	for _, b := range f.Blocks {
		if b.Count > 1 {
			if _, err := fmt.Fprintf(tw, "@loop %d %d\n", b.Count, len(b.Body)); err != nil {
				return err
			}
		}
		for i := range b.Body {
			if err := tw.action(&b.Body[i]); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

// newTextStream reads a plain or folded trace: filter >= 0 serves only
// that rank's actions (a merged trace), own >= 0 rejects any other rank's
// (the trace of one rank), and world > 0 arms the sized validation. It is
// small enough to inline, so a caller that keeps its reader local, such as
// the reader benchmarks, does not allocate it.
func newTextStream(r io.Reader, filter, own, world int) *textReader {
	rd := &textReader{in: lineReader{src: r}, filter: filter, own: own, world: world}
	rd.readHeader()
	return rd
}
