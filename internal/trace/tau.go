package trace

// TAU profile importer. A TAU profile folder holds one "profile.<rank>.0.0"
// file per rank:
//
//	42 templated_functions_MULTI_TIME
//	# Name Calls Subrs Excl Incl ProfileCalls
//	".TAU application" 1 68 1234 987654 0 GROUP="TAU_DEFAULT"
//	"MPI_Allreduce()" 250 0 34567 34567 0 GROUP="MPI"
//	...
//	2 userevents
//	# eventname numevents max min mean sumsqr
//	"Message size for all-reduce" 250 40 40 40 0
//
// Unlike a DUMPI dump, a profile is an unordered aggregate — per-function
// call counts and times, not an event sequence — so only order-insensitive
// actions can be reconstructed. The importer synthesizes a representative
// per-rank stream: init, one compute action carrying the rank's non-MPI
// exclusive time (scaled by the instruction rate), then each profiled
// collective repeated its call count with the mean payload from its own
// "Message size for <op>" user event (zero when the profile recorded no
// sizes), and finalize. Point-to-point calls cannot be paired up from
// aggregates and are folded into a synthetic alltoall carrying the rank's
// mean send size, preserving total volume; collectives — which SPMD codes
// call symmetrically, satisfying replay's participation check — are
// reconstructed faithfully.
//
// The stream is held folded, each action once with its repetition count,
// and expands as it is read, so a profile counting millions of calls costs
// no more memory than one counting two. A call count, exclusive time or
// message size that does not parse or is out of range fails the import
// naming its file and line, and every synthesized action is valid in the
// world of the profiled ranks.

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func init() {
	register(Importer{Name: "tau", Sniff: sniffTAU, Open: openTAU, checked: true})
}

// tauProfilePat matches TAU's per-rank profile files: profile.<node>.<context>.<thread>.
var tauProfilePat = regexp.MustCompile(`^profile\.(\d+)\.0\.0$`)

func tauRankFiles(dir string) (map[int]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[int]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := tauProfilePat.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		rank, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		files[rank] = filepath.Join(dir, e.Name())
	}
	return files, nil
}

func sniffTAU(path string) bool {
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		return false
	}
	files, err := tauRankFiles(path)
	if err != nil || len(files) == 0 {
		return false
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return false
		}
		sc := bufio.NewScanner(f)
		ok := sc.Scan() && strings.Contains(sc.Text(), "templated_functions")
		f.Close()
		return ok
	}
	return false
}

func openTAU(path string, opts ImportOptions) (Provider, error) {
	byRank, err := tauRankFiles(path)
	if err != nil {
		return nil, err
	}
	if len(byRank) == 0 {
		return nil, fmt.Errorf("trace: tau: no profile.<rank>.0.0 files in %s", path)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	files := make([]string, len(ranks))
	for i, r := range ranks {
		if r != i {
			return nil, fmt.Errorf("trace: tau: profiles not contiguous: missing rank %d in %s", i, path)
		}
		files[i] = byRank[r]
	}
	perRank := make(tauProvider, len(files))
	for rank, file := range files {
		prof, err := parseTAUProfile(file)
		if err == nil {
			perRank[rank], err = prof.synthesize(rank, len(files), opts.rate())
		}
		if err != nil {
			return nil, &TraceError{Path: file, Rank: rank, Err: err}
		}
	}
	return perRank, nil
}

// tauProvider serves each rank's synthesized stream, expanding its folded
// form as it is read.
type tauProvider []FoldedTrace

// NumRanks implements Provider.
func (p tauProvider) NumRanks() int { return len(p) }

// Rank implements Provider.
func (p tauProvider) Rank(rank int) (Stream, error) {
	if rank < 0 || rank >= len(p) {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, len(p))
	}
	return &foldedStream{blocks: p[rank].Blocks}, nil
}

// tauFn is one function row of a profile.
type tauFn struct {
	calls int
	excl  float64 // exclusive microseconds
	mpi   bool
}

// tauProfile is the parsed aggregate of one rank.
type tauProfile struct {
	fns   map[string]tauFn   // by bare name ("MPI_Allreduce")
	means map[string]float64 // user event means by lowercased event name
}

var tauFnPat = regexp.MustCompile(`^"([^"]+)"\s+(\d+)\s+(\d+)\s+([0-9.eE+-]+)\s+([0-9.eE+-]+)`)
var tauEvtPat = regexp.MustCompile(`^"([^"]+)"\s+([0-9.eE+-]+)\s+([0-9.eE+-]+)\s+([0-9.eE+-]+)\s+([0-9.eE+-]+)`)

func parseTAUProfile(path string) (*tauProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	if !sc.Scan() || !strings.Contains(sc.Text(), "templated_functions") {
		return nil, fmt.Errorf("tau: not a profile file (missing templated_functions header)")
	}
	p := &tauProfile{fns: make(map[string]tauFn), means: make(map[string]float64)}
	inEvents := false
	for lineNo := 2; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "userevents") && !strings.HasPrefix(line, `"`) {
			inEvents = true
			continue
		}
		if strings.Contains(line, "aggregates") && !strings.HasPrefix(line, `"`) {
			continue
		}
		if inEvents {
			if m := tauEvtPat.FindStringSubmatch(line); m != nil {
				name := strings.ToLower(m[1])
				// Only message sizes become volumes; other user events
				// may record any finite value.
				mean, err := strconv.ParseFloat(m[5], 64)
				if err != nil || (mean < 0 && strings.HasPrefix(name, "message size")) {
					return nil, fmt.Errorf("line %d: tau: bad mean %q for event %q", lineNo, m[5], m[1])
				}
				p.means[name] = mean
			}
			continue
		}
		if m := tauFnPat.FindStringSubmatch(line); m != nil {
			calls, err := strconv.Atoi(m[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: tau: bad call count %q for %q", lineNo, m[2], m[1])
			}
			excl, err := strconv.ParseFloat(m[4], 64)
			if err != nil || excl < 0 {
				return nil, fmt.Errorf("line %d: tau: bad exclusive time %q for %q", lineNo, m[4], m[1])
			}
			name := strings.TrimSuffix(strings.TrimSpace(m[1]), "()")
			p.fns[name] = tauFn{calls: calls, excl: excl,
				mpi: strings.HasPrefix(name, "MPI_") || strings.Contains(line, `GROUP="MPI"`)}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// meanSize returns the mean payload of the first of the named user events
// (TAU's -PROFILEMSGSIZE events, lowercased) that the profile recorded,
// zero when it has none. Names match exactly, so the reduce event is never
// taken for the all-reduce one.
func (p *tauProfile) meanSize(names ...string) float64 {
	for _, name := range names {
		if mean, ok := p.means[name]; ok {
			return mean
		}
	}
	return 0
}

// tauSendEvents name the mean send size, in order of preference: the
// per-operation form the collectives use, then TAU's aggregate over
// destinations.
var tauSendEvents = []string{"message size for send", "message size sent to all nodes"}

// tauCollectives maps profiled MPI collectives onto action kinds and the
// user event their payload is recorded under.
var tauCollectives = []struct {
	fn    string
	kind  Kind
	event string
}{
	{"MPI_Barrier", Barrier, ""},
	{"MPI_Bcast", Bcast, "message size for broadcast"},
	{"MPI_Reduce", Reduce, "message size for reduce"},
	{"MPI_Allreduce", AllReduce, "message size for all-reduce"},
	{"MPI_Alltoall", AllToAll, "message size for all-to-all"},
	{"MPI_Gather", Gather, "message size for gather"},
	{"MPI_Allgather", AllGather, "message size for all-gather"},
}

// synthesize builds the representative action stream of one rank, one
// block per action and its repetition count, and checks every action
// against the world.
func (p *tauProfile) synthesize(rank, world int, rate float64) (FoldedTrace, error) {
	var f FoldedTrace
	add := func(count int, a Action) {
		f.Blocks = append(f.Blocks, FoldBlock{Count: count, Body: []Action{a}})
	}
	add(1, Action{Rank: rank, Kind: Init, Peer: -1})
	// Non-MPI exclusive time (microseconds) becomes one compute volume,
	// summed in name order: floating-point addition is not associative, so
	// map order would make the volume vary from import to import.
	var usec float64
	for _, name := range slices.Sorted(maps.Keys(p.fns)) {
		if fn := p.fns[name]; !fn.mpi {
			usec += fn.excl
		}
	}
	if instr := usec / 1e6 * rate; instr > 0 {
		add(1, Action{Rank: rank, Kind: Compute, Peer: -1, Instructions: instr})
	}
	// Point-to-point aggregates cannot be paired into send/recv sequences;
	// fold the total sent volume into one alltoall so the traffic (and its
	// contention) survives, symmetrically on every rank. The counts add as
	// floats: two counts near the int range would overflow.
	sends := float64(p.fns["MPI_Send"].calls) + float64(p.fns["MPI_Isend"].calls)
	if sends > 0 {
		if mean := p.meanSize(tauSendEvents...); mean > 0 && world > 1 {
			total := sends * mean
			add(1, Action{Rank: rank, Kind: AllToAll, Peer: -1, Bytes: total / float64(world-1)})
		}
	}
	for _, c := range tauCollectives {
		fn, ok := p.fns[c.fn]
		if !ok || fn.calls == 0 {
			continue
		}
		a := Action{Rank: rank, Kind: c.kind, Peer: -1}
		if c.event != "" {
			a.Bytes = p.meanSize(c.event)
		}
		add(fn.calls, a)
	}
	add(1, Action{Rank: rank, Kind: Finalize, Peer: -1})
	for _, b := range f.Blocks {
		if err := b.Body[0].ValidateIn(world); err != nil {
			return FoldedTrace{}, err
		}
	}
	return f, nil
}
