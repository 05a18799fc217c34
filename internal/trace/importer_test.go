package trace

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// dumpiSampleRank0 and dumpiSampleRank1 are the dumps writeDUMPISample
// lays out.
var dumpiSampleRank0 = `
MPI_Init entering at walltime 10.0, cputime 0 seconds in thread 0.
MPI_Init returning at walltime 10.5, cputime 1 seconds in thread 0.
MPI_Send entering at walltime 11.0, cputime 3 seconds in thread 0.
int count=256
datatype=11 (MPI_DOUBLE)
int dest=1
int tag=0
MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Send returning at walltime 11.1, cputime 3 seconds in thread 0.
PAPI_TOT_INS = 5000000
MPI_Alltoallv entering at walltime 12.0, cputime 4 seconds in thread 0.
PAPI_TOT_INS = 8000000
int sendcounts[2]={16, 32}
int senddispls[2]={0, 16}
sendtype=11 (MPI_DOUBLE)
int recvcounts[2]={16, 32}
MPI_Alltoallv returning at walltime 12.5, cputime 4 seconds in thread 0.
MPI_Isend entering at walltime 13.0, cputime 4 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int dest=1
MPI_Isend returning at walltime 13.0, cputime 4 seconds in thread 0.
MPI_Irecv entering at walltime 13.1, cputime 4 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int source=1
MPI_Irecv returning at walltime 13.1, cputime 4 seconds in thread 0.
MPI_Waitany entering at walltime 13.2, cputime 4 seconds in thread 0.
MPI_Waitany returning at walltime 13.3, cputime 4 seconds in thread 0.
MPI_Wait entering at walltime 13.4, cputime 4 seconds in thread 0.
MPI_Wait returning at walltime 13.5, cputime 4 seconds in thread 0.
MPI_Allgatherv entering at walltime 14.0, cputime 5 seconds in thread 0.
int recvcounts[2]={8, 24}
recvtype=11 (MPI_DOUBLE)
MPI_Allgatherv returning at walltime 14.2, cputime 5 seconds in thread 0.
MPI_Finalize entering at walltime 15.0, cputime 6 seconds in thread 0.
MPI_Finalize returning at walltime 15.1, cputime 6 seconds in thread 0.
`
var dumpiSampleRank1 = `
MPI_Init entering at walltime 10.0, cputime 0 seconds in thread 0.
MPI_Init returning at walltime 10.5, cputime 1 seconds in thread 0.
MPI_Recv entering at walltime 11.0, cputime 2 seconds in thread 0.
int count=256
datatype=11 (MPI_DOUBLE)
int source=0
MPI_Recv returning at walltime 11.2, cputime 2 seconds in thread 0.
MPI_Alltoallv entering at walltime 12.0, cputime 3 seconds in thread 0.
int sendcounts[2]={16, 32}
sendtype=11 (MPI_DOUBLE)
MPI_Alltoallv returning at walltime 12.5, cputime 3 seconds in thread 0.
MPI_Isend entering at walltime 13.0, cputime 3 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int dest=0
MPI_Isend returning at walltime 13.0, cputime 3 seconds in thread 0.
MPI_Irecv entering at walltime 13.1, cputime 3 seconds in thread 0.
int count=64
datatype=2 (MPI_CHAR)
int source=0
MPI_Irecv returning at walltime 13.1, cputime 3 seconds in thread 0.
MPI_Waitsome entering at walltime 13.2, cputime 3 seconds in thread 0.
int incount=2
int outcount=2
MPI_Waitsome returning at walltime 13.3, cputime 3 seconds in thread 0.
MPI_Allgatherv entering at walltime 14.0, cputime 4 seconds in thread 0.
int recvcounts[2]={8, 24}
recvtype=11 (MPI_DOUBLE)
MPI_Allgatherv returning at walltime 14.2, cputime 4 seconds in thread 0.
MPI_Finalize entering at walltime 15.0, cputime 5 seconds in thread 0.
MPI_Finalize returning at walltime 15.1, cputime 5 seconds in thread 0.
`

// writeDUMPISample lays out a two-rank dumpi2ascii dump set covering the
// importer's whole mapping: p2p calls with datatype sizes, vector
// collectives with counts arrays, wait-set drains, CPU-time compute gaps,
// and one PAPI_TOT_INS-delimited gap. The two ranks are cross-rank
// consistent, so the result also validates and replays.
func writeDUMPISample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, body := range []string{dumpiSampleRank0, dumpiSampleRank1} {
		name := filepath.Join(dir, "dumpi-2026.08.08-000"+string(rune('0'+i))+".txt")
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "dumpi-2026.08.08.meta"),
		[]byte("hostname=node0\nnumprocs=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDUMPIImport(t *testing.T) {
	dir := writeDUMPISample(t)
	p, err := Import("dumpi", dir, ImportOptions{InstructionRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	got := materializeProvider(t, p)
	want := [][]Action{
		{
			{Rank: 0, Kind: Init, Peer: -1},
			{Rank: 0, Kind: Compute, Instructions: 2e6, Peer: -1}, // cputime gap 2 s at 1e6/s
			{Rank: 0, Kind: Send, Bytes: 2048, Peer: 1},           // 256 doubles
			{Rank: 0, Kind: Compute, Instructions: 3e6, Peer: -1}, // PAPI_TOT_INS delta, not the 1 s gap
			{Rank: 0, Kind: AllToAllV, Peer: -1, Volumes: []float64{128, 256}},
			{Rank: 0, Kind: ISend, Bytes: 64, Peer: 1}, // 64 chars
			{Rank: 0, Kind: IRecv, Bytes: 64, Peer: 1},
			{Rank: 0, Kind: WaitAny, Peer: -1},
			{Rank: 0, Kind: Wait, Peer: -1},
			{Rank: 0, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 0, Kind: AllGatherV, Peer: -1, Volumes: []float64{64, 192}},
			{Rank: 0, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 0, Kind: Finalize, Peer: -1},
		},
		{
			{Rank: 1, Kind: Init, Peer: -1},
			{Rank: 1, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 1, Kind: Recv, Bytes: 2048, Peer: 0},
			{Rank: 1, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 1, Kind: AllToAllV, Peer: -1, Volumes: []float64{128, 256}},
			{Rank: 1, Kind: ISend, Bytes: 64, Peer: 0},
			{Rank: 1, Kind: IRecv, Bytes: 64, Peer: 0},
			{Rank: 1, Kind: WaitSome, Peer: -1, Count: 2},
			{Rank: 1, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 1, Kind: AllGatherV, Peer: -1, Volumes: []float64{64, 192}},
			{Rank: 1, Kind: Compute, Instructions: 1e6, Peer: -1},
			{Rank: 1, Kind: Finalize, Peer: -1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dumpi import mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The folded streams are a well-formed trace: cross-rank validation and
	// the TIB compiler both accept them.
	if err := Validate(NewMemProvider(got)); err != nil {
		t.Fatalf("imported trace does not validate: %v", err)
	}
}

func TestDUMPIImportErrors(t *testing.T) {
	t.Run("missing rank", func(t *testing.T) {
		dir := t.TempDir()
		body := "MPI_Init entering at walltime 1.0, cputime 0 seconds in thread 0.\n" +
			"MPI_Init returning at walltime 1.1, cputime 0 seconds in thread 0.\n"
		if err := os.WriteFile(filepath.Join(dir, "d-0.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "d-2.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Import("dumpi", dir, ImportOptions{}); err == nil {
			t.Fatal("accepted a dump set with a missing rank")
		}
	})

	t.Run("meta mismatch", func(t *testing.T) {
		dir := writeDUMPISample(t)
		if err := os.WriteFile(filepath.Join(dir, "dumpi-2026.08.08.meta"),
			[]byte("numprocs=4\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Import("dumpi", dir, ImportOptions{}); err == nil {
			t.Fatal("accepted a dump set contradicting its .meta rank count")
		}
	})

	t.Run("truncated block", func(t *testing.T) {
		dir := t.TempDir()
		body := "MPI_Send entering at walltime 1.0, cputime 0 seconds in thread 0.\nint dest=1\n"
		if err := os.WriteFile(filepath.Join(dir, "d-0.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Import("dumpi", dir, ImportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Rank(0)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ok, err := st.Next(new(Action))
			if err != nil {
				if !strings.Contains(err.Error(), "EOF inside MPI_Send") {
					t.Fatalf("unexpected error text: %v", err)
				}
				return
			}
			if !ok {
				t.Fatal("truncated call block decoded without error")
			}
		}
	})

	t.Run("infinite compute gap", func(t *testing.T) {
		// A CPU-time gap times the rate overflows to +Inf: the stream must
		// refuse the compute action it would map to.
		dir := t.TempDir()
		body := "MPI_Init entering at walltime 1.0, cputime 0 seconds in thread 0.\n" +
			"MPI_Init returning at walltime 1.1, cputime 1 seconds in thread 0.\n" +
			"MPI_Barrier entering at walltime 2.0, cputime 1e305 seconds in thread 0.\n" +
			"MPI_Barrier returning at walltime 2.1, cputime 1e305 seconds in thread 0.\n"
		if err := os.WriteFile(filepath.Join(dir, "d-0.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Import("dumpi", dir, ImportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Rank(0)
		if err != nil {
			t.Fatal(err)
		}
		var a Action
		if ok, err := st.Next(&a); !ok || err != nil || a.Kind != Init {
			t.Fatalf("first action = %v, %v, %v", a, ok, err)
		}
		_, err = st.Next(&a)
		var te *TraceError
		if !errors.As(err, &te) || !strings.Contains(err.Error(), "line 4: dumpi: compute before MPI_Barrier maps to invalid action: trace: p0 compute with non-finite volume +Inf") {
			t.Fatalf("want the infinite compute gap rejected at line 4, got %v", err)
		}
	})

	t.Run("bad counts arity", func(t *testing.T) {
		dir := writeDUMPISample(t)
		// A 3-entry sendcounts in a 2-rank world must fail, naming the line.
		body := `
MPI_Alltoallv entering at walltime 1.0, cputime 0 seconds in thread 0.
int sendcounts[3]={1, 2, 3}
MPI_Alltoallv returning at walltime 1.5, cputime 0 seconds in thread 0.
`
		if err := os.WriteFile(filepath.Join(dir, "dumpi-2026.08.08-0000.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Import("dumpi", dir, ImportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Rank(0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Next(new(Action))
		if err == nil || !strings.Contains(err.Error(), "2 ranks") {
			t.Fatalf("want counts-arity error, got %v", err)
		}
	})
}

// tauSampleProfile is the profile of each rank of writeTAUSample.
const tauSampleProfile = `5 templated_functions_MULTI_TIME
# Name Calls Subrs Excl Incl ProfileCalls
".TAU application" 1 10 2000000 9000000 0 GROUP="TAU_DEFAULT"
"MPI_Allreduce()" 5 0 300000 300000 0 GROUP="MPI"
"MPI_Barrier()" 2 0 100000 100000 0 GROUP="MPI"
"MPI_Send()" 4 0 50000 50000 0 GROUP="MPI"
"MPI_Recv()" 4 0 60000 60000 0 GROUP="MPI"
0 aggregates
2 userevents
# eventname numevents max min mean sumsqr
"Message size for all-reduce" 5 40 40 40 0
"Message size for send" 4 100 100 100 0
`

// writeTAUSample lays out a two-rank TAU profile folder.
func writeTAUSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for r := 0; r < 2; r++ {
		name := filepath.Join(dir, "profile."+string(rune('0'+r))+".0.0")
		if err := os.WriteFile(name, []byte(tauSampleProfile), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestTAUImport(t *testing.T) {
	dir := writeTAUSample(t)
	p, err := Import("tau", dir, ImportOptions{InstructionRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d, want 2", p.NumRanks())
	}
	got := materializeProvider(t, p)
	// Per rank: init, the non-MPI exclusive time as compute (2 CPU seconds
	// at 1e6), the unpaired p2p volume folded into one symmetric alltoall
	// (4 sends x 100 B spread over world-1 = 400 B), the profiled
	// collectives at their call counts, finalize.
	want := []Action{
		{Rank: 0, Kind: Init, Peer: -1},
		{Rank: 0, Kind: Compute, Instructions: 2e6, Peer: -1},
		{Rank: 0, Kind: AllToAll, Bytes: 400, Peer: -1},
		{Rank: 0, Kind: Barrier, Peer: -1},
		{Rank: 0, Kind: Barrier, Peer: -1},
		{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
		{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
		{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
		{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
		{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
		{Rank: 0, Kind: Finalize, Peer: -1},
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("tau import mismatch:\ngot  %+v\nwant %+v", got[0], want)
	}
	// Identical profiles on every rank: the synthesized trace is symmetric
	// and passes cross-rank validation.
	if err := Validate(NewMemProvider(got)); err != nil {
		t.Fatalf("synthesized trace does not validate: %v", err)
	}
}

// tauDeterministicProfile is the one-rank profile of
// TestTAUImportDeterministic.
const tauDeterministicProfile = `7 templated_functions_MULTI_TIME
# Name Calls Subrs Excl Incl ProfileCalls
".TAU application" 1 3 1e16 1e16 0 GROUP="TAU_DEFAULT"
"solve" 1 0 1 1 0 GROUP="TAU_USER"
"exchange" 1 0 1 1 0 GROUP="TAU_USER"
"MPI_Reduce()" 1 0 10 10 0 GROUP="MPI"
"MPI_Allreduce()" 1 0 10 10 0 GROUP="MPI"
"MPI_Gather()" 1 0 10 10 0 GROUP="MPI"
"MPI_Allgather()" 1 0 10 10 0 GROUP="MPI"
0 aggregates
4 userevents
# eventname numevents max min mean sumsqr
"Message size for all-reduce" 1 4096 4096 4096 0
"Message size for reduce" 1 64 64 64 0
"Message size for all-gather" 1 2048 2048 2048 0
"Message size for gather" 1 32 32 32 0
`

// TestTAUImportDeterministic imports one profile repeatedly and requires
// bit-identical actions every time: the non-MPI exclusive times sum in a
// fixed order (1e16 + 1 + 1 rounds differently depending on it), and each
// collective takes its own event's mean even when the profile also holds
// the event whose name contains its own (all-reduce for reduce, all-gather
// for gather).
func TestTAUImportDeterministic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "profile.0.0.0"), []byte(tauDeterministicProfile), 0o644); err != nil {
		t.Fatal(err)
	}
	var first [][]Action
	for i := 0; i < 50; i++ {
		p, err := Import("tau", dir, ImportOptions{InstructionRate: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		got := materializeProvider(t, p)
		if i == 0 {
			first = got
			continue
		}
		for k, a := range got[0] {
			b := first[0][k]
			if math.Float64bits(a.Instructions) != math.Float64bits(b.Instructions) || a.Bytes != b.Bytes || a.Kind != b.Kind {
				t.Fatalf("import %d action %d = %+v, first import gave %+v", i, k, a, b)
			}
		}
	}
	sizes := map[Kind]float64{}
	for _, a := range first[0] {
		if a.Kind != Compute {
			sizes[a.Kind] = a.Bytes
		} else if a.Instructions != 1e16 {
			t.Fatalf("compute volume %v, want 1e16 (1e16 + 1 + 1 summed in name order)", a.Instructions)
		}
	}
	want := map[Kind]float64{Init: 0, Finalize: 0, Reduce: 64, AllReduce: 4096, Gather: 32, AllGather: 2048}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("payload by kind = %v, want %v", sizes, want)
	}
}

// tauBarrierProfile is a one-rank profile with the given barrier call count
// (line 4), application exclusive time (line 3) and all-reduce mean size
// (line 9).
func tauBarrierProfile(calls, excl, mean string) string {
	return `3 templated_functions_MULTI_TIME
# Name Calls Subrs Excl Incl ProfileCalls
".TAU application" 1 2 ` + excl + ` ` + excl + ` 0 GROUP="TAU_DEFAULT"
"MPI_Barrier()" ` + calls + ` 0 10 10 0 GROUP="MPI"
"MPI_Allreduce()" 1 0 10 10 0 GROUP="MPI"
0 aggregates
1 userevents
# eventname numevents max min mean sumsqr
"Message size for all-reduce" 1 ` + mean + ` ` + mean + ` ` + mean + ` 0
`
}

// importTAUProfile imports profile as the one rank of a TAU folder and
// returns the importer's result and the profile's path.
func importTAUProfile(t *testing.T, profile string) (Provider, string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "profile.0.0.0")
	if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Import("tau", filepath.Dir(path), ImportOptions{InstructionRate: 1e6})
	return p, path, err
}

// A profile's call counts are repetitions the stream counts out, not
// actions the importer copies: 200,000 barriers cost as little as two.
func TestTAUImportStreamsCallCounts(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := importTAUProfile(t, tauBarrierProfile("200000", "1e5", "40"))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Import allocated %d bytes for 200,000 calls, want under 1 MiB", alloc)
	}
	st, err := p.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	for {
		var a Action
		ok, err := st.Next(&a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := a.ValidateIn(1); err != nil {
			t.Fatal(err)
		}
		counts[a.Kind]++
	}
	want := map[Kind]int{Init: 1, Compute: 1, Barrier: 200000, AllReduce: 1, Finalize: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("streamed kinds %v, want %v", counts, want)
	}
}

// A count, time or message size that does not parse or is out of range
// fails the import, naming the file and line, instead of reaching replay
// as an overflowed count, an infinite compute or a negative payload.
func TestTAUImportRejectsBadNumbers(t *testing.T) {
	for _, tc := range []struct {
		name, profile, want string
	}{
		{"time overflows", tauBarrierProfile("3", "1e999", "40"),
			`line 3: tau: bad exclusive time "1e999" for ".TAU application"`},
		{"negative time", tauBarrierProfile("3", "-1", "40"),
			`line 3: tau: bad exclusive time "-1" for ".TAU application"`},
		{"count overflows", tauBarrierProfile("99999999999999999999", "1e5", "40"),
			`line 4: tau: bad call count "99999999999999999999" for "MPI_Barrier()"`},
		{"negative size", tauBarrierProfile("3", "1e5", "-7"),
			`line 9: tau: bad mean "-7" for event "Message size for all-reduce"`},
		{"size overflows", tauBarrierProfile("3", "1e5", "1e400"),
			`line 9: tau: bad mean "1e400" for event "Message size for all-reduce"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, path, err := importTAUProfile(t, tc.profile)
			var te *TraceError
			if !errors.As(err, &te) || te.Path != path || te.Rank != 0 {
				t.Fatalf("err = %v, want a *TraceError for rank 0 of %s", err, path)
			}
			if want := path + ": rank 0: " + tc.want; err.Error() != want {
				t.Fatalf("err = %v\nwant   %s", err, want)
			}
		})
	}
	// A sum of valid times can still overflow; the synthesized compute
	// action then fails validation, naming the file.
	_, path, err := importTAUProfile(t, strings.Replace(tauBarrierProfile("3", "1e308", "40"),
		`"MPI_Barrier()"`, `"solve" 1 0 1e308 1e308 0 GROUP="TAU_USER"`+"\n"+`"MPI_Barrier()"`, 1))
	if want := path + ": rank 0: trace: p0 compute with non-finite volume +Inf"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

func TestImportSniffing(t *testing.T) {
	dumpiDir := writeDUMPISample(t)
	tauDir := writeTAUSample(t)

	if name, ok := SniffImport(dumpiDir); !ok || name != "dumpi" {
		t.Fatalf("SniffImport(dumpi dir) = %q, %v", name, ok)
	}
	if name, ok := SniffImport(tauDir); !ok || name != "tau" {
		t.Fatalf("SniffImport(tau dir) = %q, %v", name, ok)
	}
	if _, ok := SniffImport(t.TempDir()); ok {
		t.Fatal("SniffImport accepted an empty directory")
	}

	// "auto" resolves through the same sniffing.
	p, err := Import("auto", tauDir, ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRanks() != 2 {
		t.Fatalf("auto-sniffed tau import has %d ranks, want 2", p.NumRanks())
	}

	if _, err := Import("hpctoolkit", dumpiDir, ImportOptions{}); err == nil {
		t.Fatal("unknown format name accepted")
	}
	if _, err := Import("auto", t.TempDir(), ImportOptions{}); err == nil {
		t.Fatal("unsniffable path accepted")
	}
}

// ImportCompile is the -import -compile path: a foreign dump lands as a
// version-2 .tib whose decoded actions match the direct import.
func TestImportCompileToTIB(t *testing.T) {
	dir := writeDUMPISample(t)
	tibPath := filepath.Join(t.TempDir(), "imported.tib")
	ranks, err := ImportCompile("dumpi", dir, tibPath, ImportOptions{InstructionRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if ranks != 2 {
		t.Fatalf("ImportCompile ranks = %d, want 2", ranks)
	}

	direct, err := Import("dumpi", dir, ImportOptions{InstructionRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	want := materializeProvider(t, direct)

	p, err := OpenTIB(tibPath)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Version() != 2 {
		t.Fatalf("compiled import Version = %d, want 2", p.Version())
	}
	if got := materializeProvider(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled import decodes differently:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestImporterRegistry(t *testing.T) {
	names := Importers()
	for _, want := range []string{"dumpi", "tau"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in importer %q not registered (have %v)", want, names)
		}
	}
	if _, ok := LookupImporter("dumpi"); !ok {
		t.Fatal("LookupImporter(dumpi) failed")
	}
}

func TestSyntheticMixes(t *testing.T) {
	for _, mix := range SyntheticMixes() {
		perRank, err := SyntheticMix(mix, 4, 3, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(perRank) != 4 {
			t.Fatalf("%s: %d ranks, want 4", mix, len(perRank))
		}
		if err := Validate(NewMemProvider(perRank)); err != nil {
			t.Fatalf("%s mix does not validate: %v", mix, err)
		}
		again, err := SyntheticMix(mix, 4, 3, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(perRank, again) {
			t.Fatalf("%s mix is not deterministic", mix)
		}
	}
	if _, err := SyntheticMix("bogus", 4, 3, 1024); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := SyntheticMix("waitany", 1, 3, 1024); err == nil {
		t.Fatal("single-rank mix accepted")
	}
}
