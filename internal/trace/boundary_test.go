package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The tests of the ingestion boundary: every stream checks each action it
// yields, once, into a record its caller owns (see Stream).

// TestUnknownKindRejected: a kind outside Init through WaitSome has no
// text, TIB or replay form, so no writer takes it and no stream yields it.
func TestUnknownKindRejected(t *testing.T) {
	a := Action{Rank: 1, Kind: Kind(42)}
	const want = "trace: p1 with unsupported action kind Kind(42)"
	if err := a.Validate(); err == nil || err.Error() != want || !errors.Is(err, ErrUnsupportedAction) {
		t.Fatalf("Validate = %v, want %q wrapping ErrUnsupportedAction", err, want)
	}
	var buf bytes.Buffer
	if err := Write(&buf, []Action{a}); err == nil || err.Error() != want {
		t.Fatalf("Write = %v, want %q", err, want)
	}
	if err := WriteFolded(&buf, []Action{a}); err == nil || err.Error() != want {
		t.Fatalf("WriteFolded = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "kind.tib")
	if err := Compile(NewMemProvider([][]Action{nil, {a}}), path, [32]byte{}); !errors.Is(err, ErrUnsupportedAction) {
		t.Fatalf("Compile = %v, want ErrUnsupportedAction", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Compile left %s behind: %v", path, err)
	}
	st, err := NewMemProvider([][]Action{nil, {a}}).Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	var got Action
	ok, err := st.Next(&got)
	var te *TraceError
	if ok || !errors.As(err, &te) || te.Rank != 1 || !errors.Is(err, ErrUnsupportedAction) {
		t.Fatalf("Next = %v, %v; want a *TraceError of rank 1 wrapping ErrUnsupportedAction", ok, err)
	}
	if got.Kind != a.Kind {
		t.Fatalf("rejected record holds kind %v, want %v", got.Kind, a.Kind)
	}
}

// TestPerRankStreamRejectsForeignAction: the stream of one rank yields only
// that rank's actions. A merged trace serves each rank its own lines, but
// any other layout holding another rank's action fails at the stream,
// naming where the action is.
func TestPerRankStreamRejectsForeignAction(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"r_0.trace": "p0 init\np1 send p0 8\n",
		"r_1.trace": "p1 init\np1 recv p0 8\n",
		"r.desc":    "r_0.trace\nr_1.trace\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	desc := filepath.Join(dir, "r.desc")
	wantText := filepath.Join(dir, "r_0.trace") + ": rank 0: line 2: trace: p1 send in the trace of rank 0"
	p, err := LoadDescription(desc, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	var a Action
	if ok, err := st.Next(&a); !ok || err != nil {
		t.Fatalf("first action: %v, %v", ok, err)
	}
	ok, err := st.Next(&a)
	var te *TraceError
	if ok || !errors.As(err, &te) || err.Error() != wantText {
		t.Fatalf("Next = %v, %v; want *TraceError %q", ok, err, wantText)
	}
	if _, _, err := CompileDescription(desc, 2); err == nil || !strings.HasSuffix(err.Error(), wantText) {
		t.Fatalf("CompileDescription = %v, want it to end in %q", err, wantText)
	}

	// In memory, the action is named by its index.
	foreign := Action{Rank: 1, Kind: Send, Peer: 0, Bytes: 8}
	st, err = NewMemProvider([][]Action{{foreign}, nil}).Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	const wantMem = "trace: rank 0: action 0: trace: p1 send in the trace of rank 0"
	if ok, err := st.Next(&a); ok || !errors.As(err, &te) || err.Error() != wantMem {
		t.Fatalf("memory Next = %v, %v; want *TraceError %q", ok, err, wantMem)
	}

	// In a compiled trace, by its offset in the rank's section.
	path := filepath.Join(dir, "r.tib")
	secs := []tibSection{{data: appendAction(nil, &foreign), count: 1}, {}}
	if err := writeTIB(path, [32]byte{}, secs); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenTIB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if st, err = cp.Rank(0); err != nil {
		t.Fatal(err)
	}
	wantTIB := path + ": rank 0: corrupt TIB trace: offset 4: trace: p1 send in the trace of rank 0"
	if ok, err := st.Next(&a); ok || !errors.Is(err, ErrCorrupt) || err.Error() != wantTIB {
		t.Fatalf("TIB Next = %v, %v; want %q", ok, err, wantTIB)
	}
}

// TestLoopBodyVectorsOwned: the actions of a loop body are read once and
// served again and again, so each must own its vector. A folded trace
// whose body holds two different vectors, read into one reused record,
// equals its expansion, and so does reading the expansion, which keeps
// every record it reads.
func TestLoopBodyVectorsOwned(t *testing.T) {
	body := "p0 alltoallv 1 2\np0 alltoallv 3 4.5\n"
	folded := foldedHeader + "\np0 alltoallv 7 8\n@loop 3 2\n" + body + "p0 alltoallv 5 6\n"
	plain := "p0 alltoallv 7 8\n" + strings.Repeat(body, 3) + "p0 alltoallv 5 6\n"
	read := func(src string) [][]float64 {
		st := newTextStream(strings.NewReader(src), -1, -1, 2)
		var vols [][]float64
		var a Action
		for {
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return vols
			}
			vols = append(vols, slices.Clone(a.Volumes))
		}
	}
	got, want := read(folded), read(plain)
	if len(got) != 8 || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("folded trace reads %v, its expansion %v", got, want)
	}
	all, err := readAll(strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !slices.Equal(all[i].Volumes, want[i]) {
			t.Fatalf("read action %d has volumes %v, want %v", i, all[i].Volumes, want[i])
		}
	}
}

// TestReaderVectorAllocs: the reader decodes every vector into its one
// scratch vector, so reading allocates no more for a thousand vector lines
// than for ten.
func TestReaderVectorAllocs(t *testing.T) {
	allocs := func(lines int) float64 {
		src := vectorTrace(lines)
		var a Action
		return testing.AllocsPerRun(5, func() {
			rd := newTextStream(strings.NewReader(src), -1, -1, 64)
			for {
				ok, err := rd.Next(&a)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Fatalf("reading 1000 alltoallv lines allocates %v times, 10 lines %v", many, few)
	}
}

// TestImportChecksUncheckedImporter: an importer registered from outside
// this package is held to the Stream contract by Import.
func TestImportChecksUncheckedImporter(t *testing.T) {
	RegisterImporter("boundary-test", func(string) bool { return false },
		func(string, ImportOptions) (Provider, error) {
			return foreignProvider{}, nil
		})
	p, err := Import("boundary-test", "somewhere", ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	var a Action
	if ok, err := st.Next(&a); !ok || err != nil {
		t.Fatalf("first action: %v, %v", ok, err)
	}
	const want = "somewhere: rank 1: action 1: trace: p0 compute in the trace of rank 1"
	ok, err := st.Next(&a)
	var te *TraceError
	if ok || !errors.As(err, &te) || err.Error() != want {
		t.Fatalf("Next = %v, %v; want *TraceError %q", ok, err, want)
	}
}

// foreignProvider is a provider of two ranks that ignores the Stream
// contract: the second action of each rank's stream is rank 0's.
type foreignProvider struct{}

func (foreignProvider) NumRanks() int { return 2 }

func (foreignProvider) Rank(rank int) (Stream, error) {
	return &uncheckedStream{actions: []Action{
		{Rank: rank, Kind: Init, Peer: -1},
		{Rank: 0, Kind: Compute, Instructions: 1, Peer: -1},
	}}, nil
}

// uncheckedStream serves its actions as they are.
type uncheckedStream struct{ actions []Action }

func (s *uncheckedStream) Next(a *Action) (bool, error) {
	if len(s.actions) == 0 {
		return false, nil
	}
	*a, s.actions = s.actions[0], s.actions[1:]
	return true, nil
}
