package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// parseOne decodes and checks one trace line on its own. Blank lines and
// lines starting with '#' yield ok=false with no error.
func parseOne(line string) (a Action, ok bool, err error) {
	var vols []float64
	if ok, err = parseLine(line, &a, &vols); ok {
		err = a.Validate()
	}
	if !ok || err != nil {
		return Action{}, false, err
	}
	return a, true, nil
}

// readAll reads a whole text trace, of any ranks, into memory.
func readAll(r io.Reader) ([]Action, error) {
	st := newTextStream(r, -1, -1, 0)
	var out []Action
	var a Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		a.Volumes = slices.Clone(a.Volumes) // the stream's, until the next call
		out = append(out, a)
	}
}

func TestParsePaperSnippet(t *testing.T) {
	// The exact snippet from Section 3.2 of the paper.
	src := `p0 compute 956140
p0 send p1 1240
p0 compute 2110
p0 send p2 1240
p0 compute 3821`
	actions, err := readAll(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 5 {
		t.Fatalf("parsed %d actions, want 5", len(actions))
	}
	want := Action{Rank: 0, Kind: Send, Peer: 1, Bytes: 1240}
	if !actions[1].Equal(want) {
		t.Fatalf("action[1] = %+v, want %+v", actions[1], want)
	}
	if actions[0].Instructions != 956140 {
		t.Fatalf("compute volume = %v", actions[0].Instructions)
	}
}

func TestParseRecvV1AndV2(t *testing.T) {
	a1, ok, err := parseOne("p1 recv p0")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if a1.Bytes != -1 {
		t.Fatalf("v1 recv bytes = %v, want -1 (unknown)", a1.Bytes)
	}
	a2, ok, err := parseOne("p1 recv p0 1240")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if a2.Bytes != 1240 {
		t.Fatalf("v2 recv bytes = %v, want 1240", a2.Bytes)
	}
}

func TestParsePlainRankTokens(t *testing.T) {
	a, ok, err := parseOne("3 send 4 100")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if a.Rank != 3 || a.Peer != 4 {
		t.Fatalf("a = %+v", a)
	}
}

func TestParseCollectives(t *testing.T) {
	cases := []struct {
		line string
		kind Kind
		root int
	}{
		{"p0 allreduce 40", AllReduce, 0},
		{"p0 bcast 1024", Bcast, 0},
		{"p0 bcast 1024 3", Bcast, 3},
		{"p0 reduce 8 2", Reduce, 2},
		{"p2 barrier", Barrier, 0},
		{"p1 alltoall 512", AllToAll, 0},
		{"p1 allgather 256", AllGather, 0},
		{"p1 gather 64 0", Gather, 0},
	}
	for _, c := range cases {
		a, ok, err := parseOne(c.line)
		if err != nil || !ok {
			t.Fatalf("%q: %v", c.line, err)
		}
		if a.Kind != c.kind || a.Root != c.root {
			t.Fatalf("%q -> %+v", c.line, a)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n  \np0 compute 10\n# trailing\n"
	actions, err := readAll(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 {
		t.Fatalf("parsed %d actions, want 1", len(actions))
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	src := "p0 compute 10\np0 send\n"
	_, err := readAll(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 info", err)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"p0 send p1",      // missing size
		"p0 send p1 -5",   // negative size
		"p0 compute -1",   // negative volume
		"p0 frobnicate 1", // unknown action
		"p0 send p0 10",   // self-send
		"p0 compute 1 2",  // extra args
		"px compute 1",    // bad rank
		"p0 allreduce",    // missing size
		"p0 bcast 10 x",   // bad root
	}
	for _, line := range bad {
		if _, ok, err := parseOne(line); err == nil && ok {
			t.Errorf("parseOne(%q) accepted", line)
		}
	}
}

// roundTripActions covers every argument form of the text grammar, with
// fractional volumes, which the text must carry exactly.
var roundTripActions = []Action{
	{Rank: 0, Kind: Init, Peer: -1},
	{Rank: 0, Kind: Compute, Instructions: 956140, Peer: -1},
	{Rank: 0, Kind: Compute, Instructions: 1234.5678, Peer: -1},
	{Rank: 0, Kind: Send, Peer: 1, Bytes: 1240},
	{Rank: 0, Kind: ISend, Peer: 1, Bytes: 0.1},
	{Rank: 0, Kind: IRecv, Peer: 2, Bytes: 880},
	{Rank: 0, Kind: Recv, Peer: 2, Bytes: -1},
	{Rank: 0, Kind: Wait, Peer: -1},
	{Rank: 0, Kind: WaitAny, Peer: -1},
	{Rank: 0, Kind: WaitSome, Count: 2, Peer: -1},
	{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
	{Rank: 0, Kind: Bcast, Bytes: 100, Root: 2, Peer: -1},
	{Rank: 0, Kind: Reduce, Bytes: 2.5, Root: 1, Peer: -1},
	{Rank: 0, Kind: Gather, Bytes: 1e-7, Peer: -1},
	{Rank: 0, Kind: AllToAllV, Peer: -1, Volumes: []float64{1024, 0.25, 3}},
	{Rank: 0, Kind: AllGatherV, Peer: -1, Volumes: []float64{8, 16.5, 0}},
	{Rank: 0, Kind: Finalize, Peer: -1},
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, roundTripActions); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, roundTripActions) {
		// %#v shows the fields; %+v would print both sides through String.
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, roundTripActions)
	}
}

// Property: any valid action round-trips through text unchanged, whole and
// fractional volumes alike.
func TestActionRoundTripProperty(t *testing.T) {
	f := func(rank uint8, kindSel uint8, whole uint32, frac uint16, peer uint8, root uint8) bool {
		kinds := []Kind{Compute, Send, ISend, Recv, IRecv, Barrier, Bcast, Reduce, AllReduce, AllToAll, Gather, AllGather, Init, Finalize, Wait, WaitAll}
		k := kinds[int(kindSel)%len(kinds)]
		a := Action{Rank: int(rank), Kind: k, Peer: -1}
		vol := float64(whole) + float64(frac%1000)/1000
		switch k {
		case Compute:
			a.Instructions = vol
		case Send, ISend, Recv, IRecv:
			a.Peer = int(peer)
			if a.Peer == a.Rank {
				a.Peer = a.Rank + 1
			}
			a.Bytes = vol
		case Bcast, Reduce, Gather:
			a.Bytes = vol
			a.Root = int(root)
		case AllReduce, AllToAll, AllGather:
			a.Bytes = vol
		}
		got, ok, err := parseOne(a.String())
		return err == nil && ok && got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilteredReader(t *testing.T) {
	src := "p0 compute 1\np1 compute 2\np0 compute 3\np2 compute 4\n"
	rd := newTextStream(strings.NewReader(src), 0, -1, 0)
	var got []float64
	for {
		var a Action
		ok, err := rd.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, a.Instructions)
	}
	if !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Fatalf("filtered = %v, want [1 3]", got)
	}
}

func TestSliceStreamAndMemProvider(t *testing.T) {
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Compute, Instructions: 5, Peer: -1}},
		{{Rank: 1, Kind: Compute, Instructions: 7, Peer: -1}},
	})
	if p.NumRanks() != 2 {
		t.Fatalf("ranks = %d", p.NumRanks())
	}
	st, err := p.Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	var a Action
	ok, _ := st.Next(&a)
	if !ok || a.Instructions != 7 {
		t.Fatalf("a = %+v ok=%v", a, ok)
	}
	if ok, _ := st.Next(new(Action)); ok {
		t.Fatal("stream should be exhausted")
	}
	if _, err := p.Rank(5); err == nil {
		t.Fatal("expected range error")
	}
}

func TestWriteSetAndLoadDescription(t *testing.T) {
	dir := t.TempDir()
	perRank := [][]Action{
		{{Rank: 0, Kind: Compute, Instructions: 10, Peer: -1}, {Rank: 0, Kind: Send, Peer: 1, Bytes: 8}},
		{{Rank: 1, Kind: Recv, Peer: 0, Bytes: 8}, {Rank: 1, Kind: Compute, Instructions: 20, Peer: -1}},
	}
	desc, err := WriteSet(dir, "lu_b8", perRank)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadDescription(desc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRanks() != 2 {
		t.Fatalf("ranks = %d", p.NumRanks())
	}
	st, err := p.Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	var a Action
	ok, err := st.Next(&a)
	if err != nil || !ok || a.Kind != Recv || a.Peer != 0 {
		t.Fatalf("a = %+v ok=%v err=%v", a, ok, err)
	}
}

func TestMergedFileProvider(t *testing.T) {
	dir := t.TempDir()
	merged := filepath.Join(dir, "all.trace")
	content := "p0 compute 1\np1 compute 2\np0 send p1 4\np1 recv p0 4\n"
	if err := os.WriteFile(merged, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	desc := filepath.Join(dir, "all.desc")
	if err := os.WriteFile(desc, []byte("all.trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadDescription(desc, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Rank(1)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for {
		var a Action
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kinds = append(kinds, a.Kind)
	}
	if !reflect.DeepEqual(kinds, []Kind{Compute, Recv}) {
		t.Fatalf("rank1 kinds = %v", kinds)
	}
}

func TestCollectStats(t *testing.T) {
	p := NewMemProvider([][]Action{
		{
			{Rank: 0, Kind: Compute, Instructions: 100, Peer: -1},
			{Rank: 0, Kind: Send, Peer: 1, Bytes: 1000},
			{Rank: 0, Kind: Send, Peer: 1, Bytes: 100000},
			{Rank: 0, Kind: AllReduce, Bytes: 8, Peer: -1},
		},
		{
			{Rank: 1, Kind: Compute, Instructions: 50, Peer: -1},
			{Rank: 1, Kind: Recv, Peer: 0, Bytes: 1000},
			{Rank: 1, Kind: Recv, Peer: 0, Bytes: 100000},
			{Rank: 1, Kind: AllReduce, Bytes: 8, Peer: -1},
		},
	})
	s, err := Collect(p, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions != 150 || s.P2PMessages != 2 || s.EagerMessages != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P2PBytes != 101000 {
		t.Fatalf("p2p bytes = %v", s.P2PBytes)
	}
	if math.Abs(s.InstructionsByRank[0]-100) > 0 || math.Abs(s.InstructionsByRank[1]-50) > 0 {
		t.Fatalf("per-rank instructions = %v", s.InstructionsByRank)
	}
	if s.ByKind[AllReduce] != 2 {
		t.Fatalf("allreduce count = %d", s.ByKind[AllReduce])
	}
}

func TestValidateAcceptsBalanced(t *testing.T) {
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Send, Peer: 1, Bytes: 8}, {Rank: 0, Kind: Barrier, Peer: -1}},
		{{Rank: 1, Kind: Recv, Peer: 0, Bytes: 8}, {Rank: 1, Kind: Barrier, Peer: -1}},
	})
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsMissingRecv(t *testing.T) {
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Send, Peer: 1, Bytes: 8}},
		{},
	})
	if err := Validate(p); err == nil {
		t.Fatal("expected send/recv mismatch error")
	}
}

func TestValidateDetectsOrphanRecv(t *testing.T) {
	p := NewMemProvider([][]Action{
		{},
		{{Rank: 1, Kind: Recv, Peer: 0, Bytes: 8}},
	})
	if err := Validate(p); err == nil {
		t.Fatal("expected orphan recv error")
	}
}

func TestValidateDetectsCollectiveImbalance(t *testing.T) {
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Barrier, Peer: -1}},
		{},
	})
	if err := Validate(p); err == nil {
		t.Fatal("expected collective imbalance error")
	}
}

// TestValidateReportsFirstMismatch pins which of several mismatches
// Validate names: the first rank pair by (source, destination), then the
// first collective in Kind order, whatever the map order of the counts.
func TestValidateReportsFirstMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace [][]Action
		want  string
	}{
		{"unmatched sends", [][]Action{
			{{Rank: 0, Kind: Send, Peer: 3, Bytes: 8}, {Rank: 0, Kind: Send, Peer: 1, Bytes: 8}, {Rank: 0, Kind: Send, Peer: 2, Bytes: 8}},
			{}, {}, {},
		}, "trace: p0 sends 1 message(s) to p1 but p1 posts 0 receive(s)"},
		{"orphan receive before unmatched send", [][]Action{
			{},
			{{Rank: 1, Kind: Recv, Peer: 0, Bytes: 8}},
			{{Rank: 2, Kind: Send, Peer: 3, Bytes: 8}},
			{},
		}, "trace: p1 posts 1 receive(s) from p0 with no matching send"},
		{"collectives", [][]Action{
			{{Rank: 0, Kind: AllReduce, Peer: -1, Bytes: 8}, {Rank: 0, Kind: Barrier, Peer: -1}, {Rank: 0, Kind: Bcast, Peer: -1, Bytes: 8}},
			{},
		}, "trace: collective barrier called 1 time(s) on p0 but 0 on p1"},
	} {
		for i := 0; i < 50; i++ {
			if err := Validate(NewMemProvider(tc.trace)); err == nil || err.Error() != tc.want {
				t.Fatalf("%s: call %d: Validate = %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

func TestValidateDetectsPeerOutOfRange(t *testing.T) {
	p := NewMemProvider([][]Action{
		{{Rank: 0, Kind: Send, Peer: 9, Bytes: 8}},
	})
	if err := Validate(p); err == nil {
		t.Fatal("expected out-of-communicator error")
	}
}

// The decoder's name table must resolve every kind, in any letter case,
// and no near miss of a name: one letter more, or another first letter.
func TestLookupKindCoversNames(t *testing.T) {
	for k, name := range kindNames {
		for _, spelling := range []string{name, strings.ToUpper(name), name + "x", "x" + name[1:]} {
			got, ok := kindOf(spelling)
			want := spelling == name || spelling == strings.ToUpper(name)
			if ok != want || (ok && got != Kind(k)) {
				t.Errorf("kindOf(%q) = %v, %v; want %v, %v", spelling, got, ok, Kind(k), want)
			}
		}
	}
}

func TestKindStringAndPredicates(t *testing.T) {
	if Send.String() != "send" || AllReduce.String() != "allreduce" {
		t.Fatal("kind names wrong")
	}
	if !Send.HasPeer() || Barrier.HasPeer() {
		t.Fatal("HasPeer wrong")
	}
	if !Bcast.IsCollective() || Compute.IsCollective() {
		t.Fatal("IsCollective wrong")
	}
}
