package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func computeA(rank int, v float64) Action {
	return Action{Rank: rank, Kind: Compute, Instructions: v, Peer: -1}
}

func sendA(rank, peer int, b float64) Action {
	return Action{Rank: rank, Kind: Send, Peer: peer, Bytes: b}
}

func repeatBlock(block []Action, k int) []Action {
	var out []Action
	for i := 0; i < k; i++ {
		out = append(out, block...)
	}
	return out
}

func TestFoldDetectsSimpleLoop(t *testing.T) {
	block := []Action{computeA(0, 100), sendA(0, 1, 8), computeA(0, 200)}
	actions := repeatBlock(block, 10)
	f := Fold(actions)
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1: %+v", len(f.Blocks), f.Blocks)
	}
	if f.Blocks[0].Count != 10 || len(f.Blocks[0].Body) != 3 {
		t.Fatalf("block = count %d, body %d", f.Blocks[0].Count, len(f.Blocks[0].Body))
	}
	if !reflect.DeepEqual(f.Expand(), actions) {
		t.Fatal("expansion differs from input")
	}
}

func TestFoldPreservesPrologueAndEpilogue(t *testing.T) {
	block := []Action{computeA(0, 1), sendA(0, 1, 8), computeA(0, 2), sendA(0, 1, 16)}
	actions := []Action{computeA(0, 999)}
	actions = append(actions, repeatBlock(block, 5)...)
	actions = append(actions, computeA(0, 888))
	f := Fold(actions)
	if !reflect.DeepEqual(f.Expand(), actions) {
		t.Fatal("expansion differs from input")
	}
	if f.Len() != len(actions) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(actions))
	}
	if f.Lines() >= len(actions) {
		t.Fatalf("no compression: %d lines for %d actions", f.Lines(), len(actions))
	}
}

func TestFoldNoRepeatsIsIdentity(t *testing.T) {
	var actions []Action
	for i := 0; i < 50; i++ {
		actions = append(actions, computeA(0, float64(i)))
	}
	f := Fold(actions)
	if !reflect.DeepEqual(f.Expand(), actions) {
		t.Fatal("expansion differs from input")
	}
}

// Property: folding is lossless for arbitrary generated sequences that mix
// random actions with injected repetitions.
func TestFoldLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var actions []Action
		for len(actions) < 300 {
			if rng.Intn(3) == 0 {
				// Inject a repeated block.
				blockLen := 1 + rng.Intn(6)
				count := 2 + rng.Intn(8)
				var block []Action
				for i := 0; i < blockLen; i++ {
					block = append(block, computeA(0, float64(rng.Intn(5))))
				}
				actions = append(actions, repeatBlock(block, count)...)
			} else {
				actions = append(actions, computeA(0, float64(rng.Intn(1000)+1000)))
			}
		}
		return reflect.DeepEqual(Fold(actions).Expand(), actions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFoldedRoundTrip(t *testing.T) {
	block := []Action{computeA(3, 100), sendA(3, 1, 2040), Action{Rank: 3, Kind: Recv, Peer: 1, Bytes: 2040}}
	actions := append([]Action{computeA(3, 7)}, repeatBlock(block, 20)...)
	// Every argument form once, fractional volumes included, unfolded.
	actions = append(actions, roundTripActions...)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, actions); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "@folded v1\n") {
		t.Fatalf("missing header: %q", buf.String()[:40])
	}
	if !strings.Contains(buf.String(), "@loop 20 3") {
		t.Fatalf("missing loop directive:\n%s", buf.String())
	}
	st := NewExpandingReader(&buf, -1)
	var got []Action
	for {
		var a Action
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		a.Volumes = slices.Clone(a.Volumes)
		got = append(got, a)
	}
	if len(got) != len(actions) {
		t.Fatalf("round trip differs: %d vs %d actions", len(got), len(actions))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], actions[i]) {
			t.Fatalf("action %d round-trips as %#v, want %#v", i, got[i], actions[i])
		}
	}
}

func TestExpandingReaderHandlesPlainTraces(t *testing.T) {
	src := "p0 compute 10\np0 send p1 8\n"
	st := NewExpandingReader(strings.NewReader(src), -1)
	var got []Action
	for {
		var a Action
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		a.Volumes = slices.Clone(a.Volumes)
		got = append(got, a)
	}
	if len(got) != 2 {
		t.Fatalf("plain trace through expander: %d actions", len(got))
	}
}

func TestExpandingReaderFilters(t *testing.T) {
	var buf bytes.Buffer
	actions := repeatBlock([]Action{computeA(0, 5), computeA(1, 6), computeA(0, 7), computeA(1, 8)}, 4)
	if err := WriteFolded(&buf, actions); err != nil {
		t.Fatal(err)
	}
	st := NewExpandingReader(&buf, 1)
	count := 0
	for {
		var a Action
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if a.Rank != 1 {
			t.Fatalf("filter leaked rank %d", a.Rank)
		}
		count++
	}
	if count != 8 {
		t.Fatalf("filtered count = %d, want 8", count)
	}
}

func TestExpandingReaderRejectsBadDirectives(t *testing.T) {
	for _, src := range []string{
		"@folded v1\n@loop\n",
		"@folded v1\n@loop x 3\n",
		"@folded v1\n@loop 2 0\n",
		"@folded v1\n@loop 2 3\np0 compute 1\n", // truncated body
	} {
		st := NewExpandingReader(strings.NewReader(src), -1)
		var err error
		for {
			var ok bool
			ok, err = st.Next(new(Action))
			if err != nil || !ok {
				break
			}
		}
		if err == nil {
			t.Errorf("accepted malformed folded trace %q", src)
		}
	}
}

func TestFoldedFileSetReplaysIdentically(t *testing.T) {
	// Write the same trace plain and folded; the file provider must serve
	// identical streams.
	block := []Action{
		{Rank: 0, Kind: Compute, Instructions: 100, Peer: -1},
		{Rank: 0, Kind: Send, Peer: 1, Bytes: 2040},
		{Rank: 0, Kind: Recv, Peer: 1, Bytes: 2040},
	}
	rank0 := repeatBlock(block, 30)
	rank1 := repeatBlock([]Action{
		{Rank: 1, Kind: Recv, Peer: 0, Bytes: 2040},
		{Rank: 1, Kind: Compute, Instructions: 50, Peer: -1},
		{Rank: 1, Kind: Send, Peer: 0, Bytes: 2040},
	}, 30)
	perRank := [][]Action{rank0, rank1}

	dir := t.TempDir()
	plainDesc, err := WriteSet(dir, "plain", perRank)
	if err != nil {
		t.Fatal(err)
	}
	foldedDesc, err := WriteFoldedSet(dir, "folded", perRank)
	if err != nil {
		t.Fatal(err)
	}
	read := func(desc string) [][]Action {
		p, err := LoadDescription(desc, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Action, 2)
		for r := 0; r < 2; r++ {
			st, err := p.Rank(r)
			if err != nil {
				t.Fatal(err)
			}
			for {
				var a Action
				ok, err := st.Next(&a)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				a.Volumes = slices.Clone(a.Volumes)
				out[r] = append(out[r], a)
			}
		}
		return out
	}
	if !reflect.DeepEqual(read(plainDesc), read(foldedDesc)) {
		t.Fatal("folded file set differs from plain")
	}
}

// TestFoldCompressionOnLUTrace measures the ratio on a real workload trace:
// the SSOR structure must fold by at least 5x.
func TestFoldCompressionOnLUTrace(t *testing.T) {
	// Build a synthetic LU-like stream: 30 identical iterations of a
	// 40-action body after a 10-action prologue.
	var body []Action
	for k := 0; k < 10; k++ {
		body = append(body,
			Action{Rank: 0, Kind: Recv, Peer: 1, Bytes: 2040},
			Action{Rank: 0, Kind: Compute, Instructions: 1e6, Peer: -1},
			Action{Rank: 0, Kind: Send, Peer: 1, Bytes: 2040},
			Action{Rank: 0, Kind: Compute, Instructions: 2e6, Peer: -1},
		)
	}
	var actions []Action
	for i := 0; i < 10; i++ {
		actions = append(actions, computeA(0, float64(1000+i)))
	}
	actions = append(actions, repeatBlock(body, 30)...)
	f := Fold(actions)
	ratio := float64(len(actions)) / float64(f.Lines())
	if ratio < 5 {
		t.Fatalf("compression ratio %.1fx, want >= 5x (lines %d for %d actions)",
			ratio, f.Lines(), len(actions))
	}
	if !reflect.DeepEqual(f.Expand(), actions) {
		t.Fatal("lossless check failed")
	}
}
