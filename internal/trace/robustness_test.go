package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// Property: ParseLine never panics and never both errors and succeeds,
// whatever bytes it is fed.
func TestParseLineNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseLine panicked on %q: %v", raw, r)
			}
		}()
		a, ok, err := ParseLine(string(raw))
		if err != nil && ok {
			return false
		}
		if ok {
			// Anything accepted must re-validate.
			return a.Validate() == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reader tolerates arbitrary garbage lines mixed with valid
// ones by reporting an error (never panicking, never mis-parsing).
func TestReaderGarbageLines(t *testing.T) {
	inputs := []string{
		"p0 compute\n",
		"p0 send p1 1e999\n", // overflow to +Inf — must be rejected or parsed finitely
		"\x00\x01\x02\n",
		"p99999999999999999999 compute 1\n",
		"p0 compute 1 # trailing comment is not supported\n",
		strings.Repeat("x", 100000) + "\n",
	}
	for _, in := range inputs {
		rd := NewReader(strings.NewReader(in))
		for {
			ok, err := rd.Next(new(Action))
			if err != nil {
				break // error is the acceptable outcome
			}
			if !ok {
				break
			}
		}
	}
}

// Volumes that overflow to infinity, and the NaN and infinity spellings
// strconv.ParseFloat accepts, must all be rejected: no replay can simulate
// them.
func TestParseOverflowVolume(t *testing.T) {
	for _, tok := range []string{"1e999", "NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		for _, line := range []string{
			"p0 compute " + tok,
			"p0 send p1 " + tok,
			"p0 isend p1 " + tok,
			"p1 recv p0 " + tok,
			"p0 bcast " + tok + " 1",
			"p0 allreduce " + tok,
			"p0 alltoallv 1 " + tok,
		} {
			if a, ok, err := ParseLine(line); err == nil || ok {
				t.Errorf("ParseLine(%q) accepted %+v", line, a)
			}
		}
	}
}

// Non-finite volumes built in memory fail Validate, so that Write and
// whole-trace validation reject them too, instead of a replay failing
// later with a misleading deadlock.
func TestValidateRejectsNonFiniteVolumes(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []Action{
			{Rank: 0, Kind: Compute, Instructions: v, Peer: -1},
			{Rank: 0, Kind: Send, Peer: 1, Bytes: v},
			{Rank: 0, Kind: IRecv, Peer: 1, Bytes: v},
			{Rank: 0, Kind: Gather, Peer: -1, Bytes: v},
			{Rank: 0, Kind: AllGatherV, Peer: -1, Volumes: []float64{1, v}},
		} {
			if err := a.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", a)
			}
			if err := Write(io.Discard, []Action{a}); err == nil {
				t.Errorf("Write accepted %+v", a)
			}
		}
	}
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Compute, Instructions: math.NaN(), Peer: -1}},
		{{Rank: 1, Kind: Compute, Instructions: 1, Peer: -1}},
	})
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Validate(provider) = %v, want a non-finite volume error", err)
	}
}

func TestReaderVeryLongLine(t *testing.T) {
	// A line longer than the initial read buffer must still parse.
	line := "p0 compute 123" + strings.Repeat(" ", 70000) + "\n"
	rd := NewReader(strings.NewReader(line))
	var a Action
	ok, err := rd.Next(&a)
	if err != nil || !ok || a.Instructions != 123 {
		t.Fatalf("long line: %+v ok=%v err=%v", a, ok, err)
	}
}

// A line over the 1 MiB limit fails with its line number, like every other
// parse error; one just under the limit still parses.
func TestReaderLongLineReportsLocation(t *testing.T) {
	huge := "p0 alltoallv" + strings.Repeat(" 1", 600000) // 1.2 MB
	src := "p0 compute 1\np0 compute 2\n" + huge + "\np0 compute 3\n"
	dir := t.TempDir()
	path := filepath.Join(dir, "long.trace")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewFileProvider([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ok, err := st.Next(new(Action))
		if err != nil {
			want := path + ": rank 0: line 3: "
			if !strings.HasPrefix(err.Error(), want) || !errors.Is(err, errLineTooLong) {
				t.Fatalf("err = %v, want prefix %q and the line limit", err, want)
			}
			break
		}
		if !ok {
			t.Fatal("over-long line accepted")
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d actions before the long line, want 2", n)
	}

	// The limit counts the newline: maxLineBytes-1 bytes of line parse, as
	// they did under bufio.Scanner's bound.
	pad := func(n int) string { return "p0 compute 7" + strings.Repeat(" ", n-len("p0 compute 7")) }
	for _, tc := range []struct {
		line string
		ok   bool
	}{{pad(maxLineBytes - 1), true}, {pad(maxLineBytes), false}} {
		in := "p0 wait\n" + tc.line + "\n"
		got, err := ReadAll(strings.NewReader(in))
		_, wantErr := drain(oracleRecord{newOracleReader(strings.NewReader(in))})
		if (err == nil) != tc.ok || (wantErr == nil) != tc.ok {
			t.Fatalf("%d-byte line: err = %v, oracle %v, want ok=%v", len(tc.line), err, wantErr, tc.ok)
		}
		if tc.ok && (len(got) != 2 || got[1].Instructions != 7) {
			t.Fatalf("%d-byte line: parsed %+v", len(tc.line), got)
		}
		if !tc.ok && !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Fatalf("%d-byte line: err = %v, want line 2", len(tc.line), err)
		}
	}

	// The error sticks: reading on repeats it.
	rd := NewReader(strings.NewReader(huge + "\np0 wait\n"))
	for i := 0; i < 3; i++ {
		if ok, err := rd.Next(new(Action)); ok || !errors.Is(err, errLineTooLong) {
			t.Fatalf("read %d after the long line: ok=%v err=%v", i, ok, err)
		}
	}
}

// Errors in folded traces carry the file's own line numbers, the header
// being line 1, and a loop's length is never trusted as an allocation size.
func TestFoldedErrorsCarryLineNumbers(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"@folded v1\n@loop 2\n", "line 2: trace: malformed loop directive"},
		{"@folded v1\np0 wait\n@loop 0 1\n", "line 3: trace: bad loop directive"},
		{"@folded v1\n@loop 2 3\np0 compute 1\n", "line 2: trace: truncated loop body (1/3 lines)"},
		{"@folded v1\n@loop 1 2000000000\np0 wait\n", "line 2: trace: truncated loop body (1/2000000000 lines)"},
		{"@folded v1\n@loop 2 2\np0 wait\np0 send p1\n", "line 4: trace: send needs destination"},
		{"@folded v1\n@loop 2 2\np0 send p9 1\np0 wait\n", "line 3: trace: p0 send peer p9 outside"},
		{"@folded v1\np0 frobnicate\n", "line 2: trace: unknown action"},
	} {
		_, err := drain(NewExpandingWorldReader(strings.NewReader(tc.src), -1, 2))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want prefix %q", tc.src, err, tc.want)
		}
	}
}

// Readers on different goroutines hand read buffers to each other through
// the pool; each must still read exactly its own trace.
func TestConcurrentReadersShareBuffers(t *testing.T) {
	const readers = 8
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func() {
			var sb strings.Builder
			for i := 0; i < 2000; i++ {
				fmt.Fprintf(&sb, "p%d compute %d\n", g, i)
			}
			for rep := 0; rep < 20; rep++ {
				got, err := drain(NewExpandingWorldReader(strings.NewReader(sb.String()), -1, 0))
				if err == nil && len(got) != 2000 {
					err = fmt.Errorf("reader %d read %d actions", g, len(got))
				}
				for i, a := range got {
					if err == nil && (a.Rank != g || a.Instructions != float64(i)) {
						err = fmt.Errorf("reader %d action %d = %+v", g, i, a)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
