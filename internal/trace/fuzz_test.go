package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLine and FuzzReader compare text ingestion with the oracle in
// oracle_test.go, the implementation it replaced; both are seeded from the
// string literals of the parser's unit tests, so plain `go test` replays
// those inputs. FuzzActionText compares the text encoder with the
// formatter it replaced and with the parser, FuzzTIBSection checks the TIB
// decoder, FuzzTAUProfile the TAU importer and FuzzDUMPI the DUMPI
// importer. Run, for example,
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
		var a Action
		ok, err := st.Next(&a)
		if err != nil || !ok {
			return out, err
		}
		a.Volumes = slices.Clone(a.Volumes) // the stream's, until the next call
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
			var a Action
			ok, err := st.Next(&a)
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
			var b Action
			ok, err = again.Next(&b)
			if err != nil || !ok || !a.Equal(b) {
				t.Fatalf("re-decoding %+v gave %+v, %v, %v", a, b, ok, err)
			}
			if ok, err := again.Next(new(Action)); ok || err != nil {
				t.Fatalf("re-encoded %+v does not end cleanly: %v, %v", a, ok, err)
			}
		}
		t.Fatalf("stream of a %d-byte section neither failed nor ended", len(section))
	})
}

// FuzzActionText builds an action of any kind, known or not, from fuzzed
// fields (vector volumes from 8 bytes each) and checks the text encoder.
// String matches the fmt-based formatter it replaced byte for byte whenever
// the scalar volumes are integral or non-finite; vector volumes printed in
// their shortest form before too. Write emits exactly the String lines and
// WriteFolded the same behind its header, and both reject an invalid
// action, an unknown kind included, with its Validate error, as
// WriteTIBFile rejects it too. A valid action parses back bit for bit.
func FuzzActionText(f *testing.F) {
	vec := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, a := range append(slices.Clone(roundTripActions),
		Action{Rank: 3, Kind: Compute, Instructions: math.Copysign(0, -1)},
		Action{Rank: 3, Kind: Compute, Instructions: math.NaN()},
		Action{Rank: 3, Kind: Send, Peer: 1, Bytes: math.Inf(1)},
		Action{Rank: 3, Kind: Recv, Peer: 1, Bytes: math.Inf(-1)},
		Action{Rank: 3, Kind: AllReduce, Bytes: -40},
		Action{Rank: 3, Kind: AllToAll, Bytes: -0.5},
		Action{Rank: 3, Kind: Bcast, Bytes: 1 << 63, Root: -2},
		Action{Rank: 3, Kind: Gather, Bytes: 1e300, Root: 7},
		Action{Rank: 3, Kind: Compute, Instructions: 5e-324},
		Action{Rank: -1, Kind: Barrier},
		Action{Rank: 1, Kind: Kind(42)},
		Action{Rank: 1, Kind: Kind(-3)},
		Action{Rank: 1, Kind: WaitSome, Count: -1},
	) {
		vol := a.Bytes
		if a.Kind == Compute {
			vol = a.Instructions
		}
		f.Add(a.Rank, int(a.Kind), a.Peer, a.Root, a.Count, vol, vec(a.Volumes...))
	}
	f.Add(0, int(AllToAllV), -1, 0, 0, 0.0, vec(math.NaN(), math.Copysign(0, -1), 1<<64, 0.3))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, rank, kind, peer, root, count int, vol float64, vecBytes []byte) {
		// Only the fields the kind's text form carries are set, so that a
		// valid action can parse back whole.
		a := Action{Rank: rank, Kind: Kind(kind), Peer: -1}
		switch a.Kind {
		case Compute:
			a.Instructions = vol
		case Send, ISend:
			a.Peer, a.Bytes = peer, vol
		case Recv, IRecv:
			a.Peer, a.Bytes = peer, vol
			if vol < 0 {
				a.Bytes = -1 // the one text form of an unknown size
			}
		case Bcast, Reduce, Gather:
			a.Bytes, a.Root = vol, root
		case AllReduce, AllToAll, AllGather:
			a.Bytes = vol
		case AllToAllV, AllGatherV:
			for i := 0; i+8 <= len(vecBytes) && i < 8*64; i += 8 {
				a.Volumes = append(a.Volumes, math.Float64frombits(binary.LittleEndian.Uint64(vecBytes[i:])))
			}
		case WaitSome:
			a.Count = count
		}
		line := a.String()
		whole := func(v float64) bool { return v == math.Trunc(v) || math.IsNaN(v) }
		if whole(a.Instructions) && whole(a.Bytes) {
			if want := oracleString(a); line != want {
				t.Fatalf("%#v prints %q, the fmt formatter %q", a, line, want)
			}
		}
		var plain, folded bytes.Buffer
		werr, ferr := Write(&plain, []Action{a, a}), WriteFolded(&folded, []Action{a})
		verr := a.Validate()
		if verr != nil {
			if errText(werr) != verr.Error() || errText(ferr) != verr.Error() {
				t.Fatalf("writing invalid %#v: Write %v, WriteFolded %v; Validate %v", a, werr, ferr, verr)
			}
			if err := WriteTIBFile(filepath.Join(dir, "invalid.tib"), [][]Action{{a}}); err == nil {
				t.Fatalf("WriteTIBFile wrote invalid %#v; Validate %v", a, verr)
			}
			return
		}
		if werr != nil || plain.String() != line+"\n"+line+"\n" {
			t.Fatalf("Write(%#v) = %q, %v; want two lines %q", a, plain.String(), werr, line)
		}
		if ferr != nil || folded.String() != foldedHeader+"\n"+line+"\n" {
			t.Fatalf("WriteFolded(%#v) = %q, %v", a, folded.String(), ferr)
		}
		if uint(a.Kind) >= uint(len(kindNames)) {
			t.Fatalf("Validate accepted %#v, whose kind the grammar has no name for", a)
		}
		got, ok, err := ParseLine(line)
		if err != nil || !ok || !identical(got, a) {
			t.Fatalf("%#v prints %q, which parses back as %#v, %v, %v", a, line, got, ok, err)
		}
	})
}

// FuzzTAUProfile imports fuzzed bytes as the TAU profile of ranks 0 and 1.
// Import must fail, or each rank's stream must yield only actions valid in
// the world of two ranks (the first tauDrainLimit of them) and then end or
// fail; nothing may panic.
func FuzzTAUProfile(f *testing.F) {
	for _, profile := range []string{tauSampleProfile, tauDeterministicProfile,
		tauBarrierProfile("200000", "1e5", "40"), tauBarrierProfile("3", "1e999", "40"),
		tauBarrierProfile("3", "1e5", "-7"), tauBarrierProfile("99999999999999999999", "1e5", "40"),
		"", "5 templated_functions_MULTI_TIME\n"} {
		f.Add([]byte(profile))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, profile []byte) {
		for _, name := range []string{"profile.0.0.0", "profile.1.0.0"} {
			if err := os.WriteFile(filepath.Join(dir, name), profile, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, err := Import("tau", dir, ImportOptions{InstructionRate: 1e6})
		if err != nil {
			return
		}
		if p.NumRanks() != 2 {
			t.Fatalf("NumRanks = %d, want 2", p.NumRanks())
		}
		for r := range 2 {
			st, err := p.Rank(r)
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			for range tauDrainLimit {
				var a Action
				ok, err := st.Next(&a)
				if err != nil || !ok {
					break
				}
				if err := a.ValidateIn(2); err != nil || a.Rank != r {
					t.Fatalf("rank %d streams %#v: %v", r, a, err)
				}
			}
		}
	})
}

// tauDrainLimit bounds how many actions FuzzTAUProfile reads per rank: a
// short profile can count billions of calls.
const tauDrainLimit = 10000

// dumpiSeeds returns the dump pairs FuzzDUMPI starts from: the sample set
// of writeDUMPISample, and the string literals that look like dumps in
// TestDUMPIImportErrors and in the dumpiDumps of core's replay corpus,
// each as the dump of rank 0 with either sample dump as rank 1's.
func dumpiSeeds(tb testing.TB) [][2]string {
	seeds := [][2]string{{dumpiSampleRank0, dumpiSampleRank1}}
	fset := token.NewFileSet()
	for _, src := range []struct{ file, decl string }{
		{"importer_test.go", "TestDUMPIImportErrors"},
		{filepath.Join("..", "core", "golden_test.go"), "dumpiDumps"},
	} {
		file, err := parser.ParseFile(fset, src.file, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body ast.Node
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == src.decl {
					body = d
				}
			case *ast.ValueSpec:
				if len(d.Names) == 1 && d.Names[0].Name == src.decl {
					body = d
				}
			}
			if body == nil {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "MPI_") {
						seeds = append(seeds, [2]string{s, dumpiSampleRank1}, [2]string{dumpiSampleRank0, s})
					}
				}
				return true
			})
			return false
		})
	}
	return seeds
}

// FuzzDUMPI imports fuzzed bytes as the ASCII dumps of ranks 0 and 1.
// Import must fail, or each rank's stream must yield only actions valid
// for its rank in a world of two (the first dumpiDrainLimit of them) and
// then end or fail with a *TraceError; nothing may panic.
func FuzzDUMPI(f *testing.F) {
	for _, seed := range dumpiSeeds(f) {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, dump0, dump1 []byte) {
		for r, dump := range [][]byte{dump0, dump1} {
			if err := os.WriteFile(filepath.Join(dir, "fuzz-"+strconv.Itoa(r)+".txt"), dump, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, err := Import("dumpi", dir, ImportOptions{InstructionRate: 1e6})
		if err != nil {
			return
		}
		if p.NumRanks() != 2 {
			t.Fatalf("NumRanks = %d, want 2", p.NumRanks())
		}
		var a Action
		for r := range 2 {
			st, err := p.Rank(r)
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			for range dumpiDrainLimit {
				ok, err := st.Next(&a)
				if err != nil {
					var te *TraceError
					if !errors.As(err, &te) {
						t.Fatalf("rank %d: error %T is not a *TraceError: %v", r, err, err)
					}
					break
				}
				if !ok {
					break
				}
				if err := a.ValidateFor(r, 2); err != nil {
					t.Fatalf("rank %d streams %#v: %v", r, a, err)
				}
			}
			if c, ok := st.(io.Closer); ok {
				c.Close()
			}
		}
	})
}

// dumpiDrainLimit bounds how many actions FuzzDUMPI reads per rank.
const dumpiDrainLimit = 10000
