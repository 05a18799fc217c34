package trace

import (
	"bufio"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets compare text ingestion with the oracle in oracle_test.go,
// the implementation it replaced. Both are seeded from the string literals
// of the parser's unit tests, so plain `go test` replays those inputs; run
// `go test -run '^$' -fuzz '^FuzzReader$' ./internal/trace` to explore.

// seedFiles hold the parser's unit tests.
var seedFiles = []string{"trace_test.go", "robustness_test.go", "fold_test.go"}

// extraSeeds reach corners the unit tests do not spell out: Unicode white
// space and case folding, non-finite and unusual numbers, signs, and loop
// directives.
var extraSeeds = []string{
	"p0 compute NaN", "p0 send p1 inf", "p0 compute +Inf", "p1 recv p0 -Inf",
	"p0 allreduce infinity", "p0 alltoallv 1 nan 2", "p0 compute 1e999",
	"p0 compute 0x1p-2", "p0 compute 1_000", "p0 compute -0", "p0 compute 0.5e3",
	"p0 compute 1234567890123456", "p0 compute 000000000000000000001",
	"p-0 compute 1", "p+3 send -0 1", "pp3 wait", "p 3 wait", "p9223372036854775808 wait",
	"P0 COMPUTE 1", "p0 İNİT", "p0 ɪnit", "p0 bcast 1 +2", "p0 waitsome 0", "p0 waitsome -1",
	" p0 compute\u00851　", "p0\x00compute 1", "p0 co\xffmpute 1",
	"p0 wait extra args", "#p0 compute 1", "  # comment", "p0 recv p1 1 2",
	"p0 gather 8 0 1", "p0 allgatherv 1 2 3", "p0 alltoallv",
	"@folded v1\n@loop 3 2\np0 compute 1\n# note\np0 send p1 2\np0 wait\n",
	"@folded v1\n@loopy 2 1\np0 wait\n", "@folded v1\n @loop\t2 1 \np0 wait",
	"@folded v1\n@loop 2 1\n@loop 2 1\np0 wait\n", "@folded v1\n@loop 1 2000000000\np0 wait\n",
	"@folded v1 trailing\np0 wait\r\np1 wait\r\n", "@folded v1",
	"@folded v1\n@loop 2 2\np0 send p7 1\np0 wait\n", "p0 send p7 1\n",
}

// seedInputs returns the string literals of the parser's unit tests plus
// extraSeeds.
func seedInputs(tb testing.TB) []string {
	fset := token.NewFileSet()
	inputs := append([]string(nil), extraSeeds...)
	for _, name := range seedFiles {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					inputs = append(inputs, s)
				}
			}
			return true
		})
	}
	return inputs
}

// identical is Action.Equal with volumes compared bit for bit, so that a
// negative zero must survive too.
func identical(a, b Action) bool {
	if !a.Equal(b) || math.Float64bits(a.Instructions) != math.Float64bits(b.Instructions) ||
		math.Float64bits(a.Bytes) != math.Float64bits(b.Bytes) {
		return false
	}
	for i := range a.Volumes {
		if math.Float64bits(a.Volumes[i]) != math.Float64bits(b.Volumes[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func FuzzParseLine(f *testing.F) {
	for _, in := range seedInputs(f) {
		for _, line := range strings.Split(in, "\n") {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		a, ok, err := ParseLine(line)
		want, wantOK, wantErr := oracleParseLine(line)
		if ok != wantOK || errText(err) != errText(wantErr) || (ok && !identical(a, want)) {
			t.Fatalf("ParseLine(%q) = %+v, %v, %v\noracle     = %+v, %v, %v", line, a, ok, err, want, wantOK, wantErr)
		}
		if ok && a.Validate() != nil {
			t.Fatalf("ParseLine(%q) accepted an invalid action %+v", line, a)
		}
	})
}

// drainLimit bounds how many actions a fuzzed input may expand to: a short
// folded trace can loop a billion times.
const drainLimit = 1 << 12

func drain(st Stream) ([]Action, error) {
	var out []Action
	for len(out) < drainLimit {
		a, ok, err := st.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

var linePrefix = regexp.MustCompile(`^line ([0-9]+): `)

func FuzzReader(f *testing.F) {
	for _, in := range seedInputs(f) {
		f.Add(in, uint8(0), uint8(0))
		f.Add(foldedHeader+"\n"+in, uint8(1), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data string, filterSel, worldSel uint8) {
		// Loops expand as they are read, so a short input can stand for
		// billions of actions, which the rank filter may drop before
		// drainLimit counts any. Skip inputs with long valid loops.
		for _, line := range strings.Split(data, "\n") {
			fs := strings.Fields(line)
			if len(fs) == 3 && strings.HasPrefix(fs[0], "@loop") {
				if n, err := strconv.Atoi(fs[1]); err == nil && n > 1000 {
					t.Skip("loop too long to drain")
				}
			}
		}
		filter, world := int(filterSel%4)-1, int(worldSel%5)
		got, err := drain(NewExpandingWorldReader(strings.NewReader(data), filter, world))
		want, wantErr := drain(newOracleExpandingReader(strings.NewReader(data), filter, world))
		if len(got) != len(want) {
			t.Fatalf("read %d actions, oracle %d (err %v, oracle %v)", len(got), len(want), err, wantErr)
		}
		for i := range got {
			if !identical(got[i], want[i]) {
				t.Fatalf("action %d = %+v, oracle %+v", i, got[i], want[i])
			}
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, oracle %v", err, wantErr)
		}
		if err == nil {
			return
		}
		m := linePrefix.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("error without a line number: %v", err)
		}
		if n, _ := strconv.Atoi(m[1]); n < 1 || n > strings.Count(data, "\n")+1 {
			t.Fatalf("error names line %d of a %d-line input: %v", n, strings.Count(data, "\n")+1, err)
		}
		switch {
		case errors.Is(wantErr, bufio.ErrTooLong):
			if !errors.Is(err, errLineTooLong) {
				t.Fatalf("err = %v, oracle %v", err, wantErr)
			}
		case !strings.HasPrefix(data, foldedHeader):
			if err.Error() != wantErr.Error() {
				t.Fatalf("err = %v\noracle %v", err, wantErr)
			}
		default:
			// The oracle numbered the lines of folded traces from the one
			// after the header, and most of its folded-trace errors had no
			// line number at all: compare the messages without them.
			strip := func(err error) string { return linePrefix.ReplaceAllString(err.Error(), "") }
			if strip(err) != strip(wantErr) {
				t.Fatalf("err = %v\noracle %v", err, wantErr)
			}
		}
	})
}

// FuzzTIBSection decodes fuzzed bytes as one rank's section of a file that
// writeTIB wrote for a world of 1 to 16 ranks, so every checksum holds and
// the bytes reach tibStream.Next. count is the section's action count in
// the index, taken modulo the section length plus one (the header reader
// rejects larger counts). Every Next must return a *TraceError, end the
// stream cleanly, or yield an action that is valid in the world and that
// appendAction and a second decode give back Equal.
func FuzzTIBSection(f *testing.F) {
	for _, set := range [][][]Action{sampleTraceSet(4), sampleTraceSetV2(4)} {
		for _, actions := range set {
			for i := range actions {
				f.Add(appendAction(nil, &actions[i]), uint16(1), uint8(len(set)-1))
			}
		}
	}
	v1, err := OpenTIB(filepath.Join("testdata", "sample_v1.tib"))
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range v1.index {
		sec := make([]byte, ent.length)
		if _, err := v1.f.ReadAt(sec, int64(ent.offset)); err != nil {
			f.Fatal(err)
		}
		f.Add(sec, uint16(ent.count), uint8(v1.NumRanks()-1))
	}
	v1.Close()

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, section []byte, count uint16, worldSel uint8) {
		world := 1 + int(worldSel%16)
		secs := make([]tibSection, world)
		secs[0] = tibSection{data: section, count: uint64(count) % uint64(len(section)+1)}
		path := filepath.Join(dir, "fuzz.tib")
		if err := writeTIB(path, [32]byte{}, secs); err != nil {
			t.Fatal(err)
		}
		p, err := OpenTIB(path)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		st, err := p.Rank(0)
		if err != nil {
			t.Fatal(err)
		}
		// Each action takes at least two bytes, so a stream that neither
		// fails nor ends within len(section) calls has stopped advancing.
		for range len(section) + 1 {
			a, ok, err := st.Next()
			if err != nil {
				var te *TraceError
				if !errors.As(err, &te) {
					t.Fatalf("Next error %T is not a *TraceError: %v", err, err)
				}
				return
			}
			if !ok {
				return
			}
			if err := a.ValidateIn(world); err != nil {
				t.Fatalf("decoded %+v, invalid in a world of %d: %v", a, world, err)
			}
			again := &tibStream{buf: appendAction(nil, &a), remaining: 1, maxKind: maxKindV2, world: world}
			b, ok, err := again.Next()
			if err != nil || !ok || !a.Equal(b) {
				t.Fatalf("re-decoding %+v gave %+v, %v, %v", a, b, ok, err)
			}
			if _, ok, err := again.Next(); ok || err != nil {
				t.Fatalf("re-encoded %+v does not end cleanly: %v, %v", a, ok, err)
			}
		}
		t.Fatalf("stream of a %d-byte section neither failed nor ended", len(section))
	})
}
