package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// The replay golden corpus pins simulated times, action counts, every
// engine counter, and failure reports bit for bit. It was recorded from the
// goroutine-per-rank scheduler, the oracle the continuation machine was
// proven against before that scheduler was deleted; regenerate it only for
// an intended change of simulated behaviour:
//
//	go test ./internal/core -run BitIdentical -update

var update = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const replayGoldenPath = "testdata/replay_golden.json"

// goldenResult is one corpus entry: a replay's outcome, or its exact error.
type goldenResult struct {
	Name string `json:"name"`
	// SimulatedTime holds the IEEE-754 bits of Result.SimulatedTime in hex,
	// so the comparison is exact.
	SimulatedTime string     `json:"simulated_time,omitempty"`
	Actions       int64      `json:"actions,omitempty"`
	Engine        *sim.Stats `json:"engine,omitempty"`
	Error         string     `json:"error,omitempty"`
}

// goldenCase is one corpus replay: a trace, its rank count, and a config.
type goldenCase struct {
	name  string
	ranks int
	prov  func(t *testing.T) trace.Provider
	cfg   Config
}

// goldenConfigs are the model configurations random traces are crossed
// with: the default SMPI model, SMPI with every optional cost and the
// non-default collective algorithms, and the MSG prototype.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"smpi", Config{Backend: SMPI}},
	{"smpi-tuned", Config{Backend: SMPI, MPI: mpi.ModelConfig{
		SendOverhead: 1e-7, RecvOverhead: 2e-7,
		MemcpyBandwidth: 5e9, MemcpyLatency: 1e-8,
		Bcast: mpi.BcastChain, AllReduce: mpi.AllReduceRing,
	}}},
	{"msg", Config{Backend: MSG, MSG: msgreplay.Config{RefLatency: 1e-5, RefBandwidth: 1e9}}},
}

// goldenFailures are malformed or deadlocking traces whose reports the
// corpus pins for both backends.
var goldenFailures = []struct {
	name    string
	perRank [][]trace.Action
}{
	{"orphan-wait", [][]trace.Action{
		{{Rank: 0, Kind: trace.Compute, Instructions: 10, Peer: -1}, {Rank: 0, Kind: trace.Wait, Peer: -1}},
	}},
	{"waitsome-overcount", [][]trace.Action{
		{{Rank: 0, Kind: trace.ISend, Peer: 1, Bytes: 8}, {Rank: 0, Kind: trace.WaitSome, Peer: -1, Count: 2}},
		{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 8}},
	}},
	{"unknown-kind", [][]trace.Action{
		{{Rank: 0, Kind: trace.Kind(99)}},
	}},
	{"failing-stream", nil},
	{"crossed-recv-deadlock", [][]trace.Action{
		{{Rank: 0, Kind: trace.Recv, Peer: 1, Bytes: 8}, {Rank: 0, Kind: trace.Send, Peer: 1, Bytes: 8}},
		{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 8}, {Rank: 1, Kind: trace.Send, Peer: 0, Bytes: 8}},
	}},
	{"imbalanced-barrier", [][]trace.Action{
		{{Rank: 0, Kind: trace.Barrier, Peer: -1}},
		{{Rank: 1, Kind: trace.Compute, Instructions: 10, Peer: -1}},
	}},
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= 25; seed++ {
		// 5 ranks: odd size exercises the non-power-of-two collective paths.
		perRank := randomTrace(rand.New(rand.NewSource(seed)), 5)
		for _, c := range goldenConfigs {
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("random/seed=%02d/%s", seed, c.name),
				ranks: 5,
				prov:  func(*testing.T) trace.Provider { return trace.NewMemProvider(perRank) },
				cfg:   c.cfg,
			})
		}
	}
	for _, backend := range []string{SMPI, MSG} {
		cases = append(cases, goldenCase{
			name:  "dumpi/" + backend,
			ranks: 2,
			prov:  importDUMPI,
			cfg:   backendConfig(backend),
		})
	}
	for _, f := range goldenFailures {
		f := f
		prov := func(*testing.T) trace.Provider { return trace.NewMemProvider(f.perRank) }
		ranks := len(f.perRank)
		if f.perRank == nil {
			prov = func(*testing.T) trace.Provider { return errProvider{} }
			ranks = 1
		}
		for _, backend := range []string{SMPI, MSG} {
			cases = append(cases, goldenCase{
				name:  "fail/" + f.name + "/" + backend,
				ranks: ranks,
				prov:  prov,
				cfg:   backendConfig(backend),
			})
		}
	}
	return cases
}

// replayGolden runs one corpus case and renders its outcome.
func replayGolden(t *testing.T, c goldenCase) goldenResult {
	t.Helper()
	res, err := Replay(c.prov(t), testPlatform(t, c.ranks), c.cfg)
	if err != nil {
		return goldenResult{Name: c.name, Error: err.Error()}
	}
	return goldenResult{
		Name:          c.name,
		SimulatedTime: fmt.Sprintf("%016x", math.Float64bits(res.SimulatedTime)),
		Actions:       res.Actions,
		Engine:        &res.Engine,
	}
}

var (
	goldenOnce   sync.Once
	goldenCorpus map[string]goldenResult
	goldenErr    error
)

// loadGolden returns the corpus keyed by entry name, first rewriting it
// from the current code when -update is set.
func loadGolden(t *testing.T) map[string]goldenResult {
	t.Helper()
	goldenOnce.Do(func() {
		if *update {
			var entries []goldenResult
			for _, c := range goldenCases() {
				entries = append(entries, replayGolden(t, c))
			}
			goldenErr = writeGolden(replayGoldenPath, entries)
			if goldenErr != nil {
				return
			}
		}
		var entries []goldenResult
		goldenErr = readGolden(replayGoldenPath, &entries)
		goldenCorpus = make(map[string]goldenResult, len(entries))
		for _, e := range entries {
			goldenCorpus[e.Name] = e
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenCorpus
}

func writeGolden(path string, v any) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep mailbox names such as "p:1>0" legible
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func readGolden(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// checkGolden replays every corpus case whose name starts with prefix and
// requires the outcome to equal its recorded entry exactly.
func checkGolden(t *testing.T, prefix string) {
	t.Helper()
	corpus := loadGolden(t)
	n := 0
	for _, c := range goldenCases() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		n++
		want, ok := corpus[c.name]
		if !ok {
			t.Errorf("%s: missing from %s (regenerate with -update)", c.name, replayGoldenPath)
			continue
		}
		got := replayGolden(t, c)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Errorf("%s diverges from the corpus:\n got: %s\nwant: %s", c.name, gj, wj)
		}
	}
	if n == 0 {
		t.Fatalf("no corpus case matches %q", prefix)
	}
}

// TestContinuationGoroutineBitIdentical replays random traces exercising
// every replayable action kind, for both backends and across model
// configurations, and requires the simulated time, action count and every
// engine counter to equal what the goroutine scheduler recorded in the
// corpus.
func TestContinuationGoroutineBitIdentical(t *testing.T) {
	checkGolden(t, "random/")
}

// A DUMPI-imported trace must replay end to end — importer registry in,
// vector collectives and wait sets through the driver, out the other side
// bit-identical to the corpus on both backends.
func TestDUMPIImportReplaysBitIdentical(t *testing.T) {
	checkGolden(t, "dumpi/")
}

// The trace-level failure modes are pinned too: structured TraceErrors and
// deadlock reports must read exactly as the goroutine scheduler recorded
// them, on both backends.
func TestTraceFailuresIdenticalAcrossSchedulers(t *testing.T) {
	for _, f := range goldenFailures {
		t.Run(f.name, func(t *testing.T) {
			checkGolden(t, "fail/"+f.name+"/")
		})
	}
}

// The continuation deadlock report is also pinned to a golden string so the
// lazy mailbox-name rendering can never drift from the historical format.
func TestCrossedRecvDeadlockGolden(t *testing.T) {
	perRank := [][]trace.Action{
		{{Rank: 0, Kind: trace.Recv, Peer: 1, Bytes: 8}},
		{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 8}},
	}
	_, err := Replay(trace.NewMemProvider(perRank), testPlatform(t, 2), Config{})
	if err == nil {
		t.Fatal("crossed receives must deadlock")
	}
	const golden = `core: replay failed: sim: deadlock at t=0 with 2 blocked process(es): ` +
		`rank0: wait(comm 1 on "p:1>0"); rank1: wait(comm 2 on "p:0>1")`
	if err.Error() != golden {
		t.Fatalf("deadlock report = %q, want %q", err.Error(), golden)
	}
}

// importDUMPI writes the two-rank DUMPI dump to a fresh directory and
// imports it; the provider streams from the files, so every replay needs
// its own import.
func importDUMPI(t *testing.T) trace.Provider {
	t.Helper()
	dir := t.TempDir()
	for i, body := range dumpiDumps {
		name := filepath.Join(dir, fmt.Sprintf("dump-%d.txt", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := trace.Import("auto", dir, trace.ImportOptions{InstructionRate: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var dumpiDumps = []string{`
MPI_Init entering at walltime 10.0, cputime 0 seconds in thread 0.
MPI_Init returning at walltime 10.5, cputime 1 seconds in thread 0.
MPI_Send entering at walltime 11.0, cputime 3 seconds in thread 0.
int count=256
datatype=11 (MPI_DOUBLE)
int dest=1
MPI_Send returning at walltime 11.1, cputime 3 seconds in thread 0.
MPI_Alltoallv entering at walltime 12.0, cputime 4 seconds in thread 0.
int sendcounts[2]={16, 32}
sendtype=11 (MPI_DOUBLE)
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
`, `
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
int outcount=2
MPI_Waitsome returning at walltime 13.3, cputime 3 seconds in thread 0.
MPI_Allgatherv entering at walltime 14.0, cputime 4 seconds in thread 0.
int recvcounts[2]={8, 24}
recvtype=11 (MPI_DOUBLE)
MPI_Allgatherv returning at walltime 14.2, cputime 4 seconds in thread 0.
MPI_Finalize entering at walltime 15.0, cputime 5 seconds in thread 0.
MPI_Finalize returning at walltime 15.1, cputime 5 seconds in thread 0.
`}

// randomTrace builds a balanced random trace over n ranks: matched
// eager and rendezvous point-to-point traffic, isend/irecv with FIFO
// wait/waitall, nonblocking bursts drained by waitany/waitsome, compute,
// the full collective set, and uneven vector collectives.
func randomTrace(rng *rand.Rand, n int) [][]trace.Action {
	perRank := make([][]trace.Action, n)
	addAll := func(kind trace.Kind, bytes float64, root int) {
		for r := 0; r < n; r++ {
			perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: kind, Bytes: bytes, Root: root, Peer: -1})
		}
	}
	for round := 0; round < 15; round++ {
		switch rng.Intn(8) {
		case 0: // blocking exchange, size straddling the eager threshold
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(150000))
			perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.Send, Peer: dst, Bytes: size})
			perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.Recv, Peer: src, Bytes: size})
		case 1: // nonblocking pair drained by wait or waitall
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(150000))
			perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.ISend, Peer: dst, Bytes: size})
			perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.IRecv, Peer: src, Bytes: size})
			if rng.Intn(2) == 0 {
				perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.Wait, Peer: -1})
				perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.Wait, Peer: -1})
			} else {
				perRank[src] = append(perRank[src], trace.Action{Rank: src, Kind: trace.WaitAll, Peer: -1})
				perRank[dst] = append(perRank[dst], trace.Action{Rank: dst, Kind: trace.WaitAll, Peer: -1})
			}
		case 2:
			for r := 0; r < n; r++ {
				perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.Compute, Instructions: float64(rng.Intn(1e6)), Peer: -1})
			}
		case 3:
			addAll(trace.Barrier, 0, 0)
		case 4:
			root := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				addAll(trace.Bcast, float64(1+rng.Intn(100000)), root)
			case 1:
				addAll(trace.Reduce, float64(1+rng.Intn(4096)), root)
			default:
				addAll(trace.Gather, float64(1+rng.Intn(4096)), root)
			}
		case 5:
			switch rng.Intn(3) {
			case 0:
				addAll(trace.AllReduce, float64(1+rng.Intn(100000)), 0)
			case 1:
				addAll(trace.AllToAll, float64(1+rng.Intn(8192)), 0)
			default:
				addAll(trace.AllGather, float64(1+rng.Intn(8192)), 0)
			}
		case 6: // vector collectives with uneven, cross-rank-consistent volumes
			if rng.Intn(2) == 0 {
				// Per-pair volumes: rank r's entry for peer k derives from
				// (r, k) only, so every rank compiles the same exchange.
				base := float64(1 + rng.Intn(8192))
				for r := 0; r < n; r++ {
					vols := make([]float64, n)
					for k := 0; k < n; k++ {
						if k != r {
							vols[k] = base * float64(1+(r*13+k*7)%5)
						}
					}
					perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.AllToAllV, Peer: -1, Volumes: vols})
				}
			} else {
				// Contribution sizes depend on the contributing rank only, so
				// all ranks record one identical vector.
				vols := make([]float64, n)
				for k := 0; k < n; k++ {
					vols[k] = float64(1 + rng.Intn(8192))
				}
				for r := 0; r < n; r++ {
					perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.AllGatherV, Peer: -1,
						Volumes: append([]float64(nil), vols...)})
				}
			}
		default: // nonblocking burst to both neighbors drained out of order
			for r := 0; r < n; r++ {
				next, prev := (r+1)%n, (r-1+n)%n
				size := float64(1 + rng.Intn(150000))
				perRank[r] = append(perRank[r],
					trace.Action{Rank: r, Kind: trace.ISend, Peer: next, Bytes: size},
					trace.Action{Rank: r, Kind: trace.ISend, Peer: prev, Bytes: size},
					trace.Action{Rank: r, Kind: trace.IRecv, Peer: prev, Bytes: size},
					trace.Action{Rank: r, Kind: trace.IRecv, Peer: next, Bytes: size})
				switch rng.Intn(3) {
				case 0: // four waitanys
					for i := 0; i < 4; i++ {
						perRank[r] = append(perRank[r], trace.Action{Rank: r, Kind: trace.WaitAny, Peer: -1})
					}
				case 1: // waitsome of 3 plus a waitall for the rest
					perRank[r] = append(perRank[r],
						trace.Action{Rank: r, Kind: trace.WaitSome, Peer: -1, Count: 3},
						trace.Action{Rank: r, Kind: trace.WaitAll, Peer: -1})
				default: // waitany, then drain with a waitall
					perRank[r] = append(perRank[r],
						trace.Action{Rank: r, Kind: trace.WaitAny, Peer: -1},
						trace.Action{Rank: r, Kind: trace.WaitAll, Peer: -1})
				}
			}
		}
	}
	// Every rank finishes with a waitall so no pending request leaks.
	addAll(trace.WaitAll, 0, 0)
	return perRank
}
