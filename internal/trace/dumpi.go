package trace

// SST DUMPI importer. DUMPI (the MPI tracer of Sandia's SST toolkit) writes
// one binary dump per rank; `dumpi2ascii` renders each as a text stream of
// call blocks:
//
//	MPI_Send entering at walltime 11651.697763, cputime 0.000233 seconds in thread 0.
//	int count=256
//	datatype=11 (MPI_DOUBLE)
//	int dest=1
//	int tag=0
//	MPI_Comm comm=2 (MPI_COMM_WORLD)
//	MPI_Send returning at walltime 11651.697769, cputime 0.000239 seconds in thread 0.
//
// The importer accepts a folder of such per-rank files (suffix "-<rank>.txt",
// as produced by dumpi2ascii over a dump set) and folds them into
// time-independent streams: the CPU-time gap between one call's return and
// the next call's entry becomes a compute action (scaled by the calibrated
// instruction rate, or measured directly when PAPI_TOT_INS counter lines are
// present), and each recognized MPI call becomes its action — including the
// vector collectives (MPI_Alltoallv/MPI_Allgatherv carry their counts
// arrays) and the wait-set completions (MPI_Waitany/MPI_Waitsome).
// Unrecognized calls contribute their CPU time to the surrounding compute
// and are otherwise skipped.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func init() {
	register(Importer{Name: "dumpi", Sniff: sniffDUMPI, Open: openDUMPI, checked: true})
}

// dumpiFilePat matches dumpi2ascii per-rank file names: anything ending in
// a dash, the decimal rank, and ".txt" ("dumpi-2026.08.08-0003.txt").
var dumpiFilePat = regexp.MustCompile(`-(\d+)\.txt$`)

// dumpiRankFiles lists dir's per-rank ASCII dumps indexed by rank.
func dumpiRankFiles(dir string) (map[int]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[int]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := dumpiFilePat.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		rank, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if prev, dup := files[rank]; dup {
			return nil, fmt.Errorf("trace: dumpi: rank %d appears twice (%s, %s)", rank, filepath.Base(prev), e.Name())
		}
		files[rank] = filepath.Join(dir, e.Name())
	}
	return files, nil
}

// sniffDUMPI accepts a directory holding at least one "-<rank>.txt" file
// whose first line is an "MPI_... entering" header.
func sniffDUMPI(path string) bool {
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		return false
	}
	files, err := dumpiRankFiles(path)
	if err != nil || len(files) == 0 {
		return false
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return false
		}
		sc := bufio.NewScanner(f)
		ok := false
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			ok = strings.HasPrefix(line, "MPI_") && strings.Contains(line, " entering at ")
			break
		}
		f.Close()
		return ok
	}
	return false
}

func openDUMPI(path string, opts ImportOptions) (Provider, error) {
	byRank, err := dumpiRankFiles(path)
	if err != nil {
		return nil, err
	}
	if len(byRank) == 0 {
		return nil, fmt.Errorf("trace: dumpi: no per-rank ASCII dumps (*-<rank>.txt) in %s", path)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	files := make([]string, len(ranks))
	for i, r := range ranks {
		if r != i {
			return nil, fmt.Errorf("trace: dumpi: rank files not contiguous: missing rank %d in %s", i, path)
		}
		files[i] = byRank[r]
	}
	// A dumpi .meta file, when present, must agree with the file count.
	if metas, _ := filepath.Glob(filepath.Join(path, "*.meta")); len(metas) > 0 {
		if np, ok := dumpiMetaProcs(metas[0]); ok && np != len(files) {
			return nil, fmt.Errorf("trace: dumpi: %s declares numprocs=%d but %d rank dumps found",
				filepath.Base(metas[0]), np, len(files))
		}
	}
	return &dumpiProvider{files: files, rate: opts.rate()}, nil
}

// dumpiMetaProcs extracts "numprocs=N" from a dumpi .meta file.
func dumpiMetaProcs(path string) (int, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "numprocs="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			return n, err == nil
		}
	}
	return 0, false
}

type dumpiProvider struct {
	files []string
	rate  float64
}

func (p *dumpiProvider) NumRanks() int { return len(p.files) }

func (p *dumpiProvider) Rank(rank int) (Stream, error) {
	if rank < 0 || rank >= len(p.files) {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, len(p.files))
	}
	f, err := os.Open(p.files[rank])
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	ds := &dumpiStream{
		path: p.files[rank], rank: rank, world: len(p.files), rate: p.rate,
		sc: sc, lastCPU: -1, lastPAPI: -1,
	}
	return &fileStream{f: f, rd: ds, rank: rank}, nil
}

// dumpiDatatypeSize maps the named MPI datatypes dumpi2ascii annotates onto
// byte sizes; unknown types default to 4 bytes.
func dumpiDatatypeSize(name string) float64 {
	switch name {
	case "MPI_CHAR", "MPI_BYTE", "MPI_SIGNED_CHAR", "MPI_UNSIGNED_CHAR", "MPI_PACKED":
		return 1
	case "MPI_SHORT", "MPI_UNSIGNED_SHORT":
		return 2
	case "MPI_LONG", "MPI_UNSIGNED_LONG", "MPI_DOUBLE", "MPI_LONG_LONG",
		"MPI_UNSIGNED_LONG_LONG", "MPI_LONG_LONG_INT", "MPI_DOUBLE_INT":
		return 8
	case "MPI_LONG_DOUBLE":
		return 16
	default: // MPI_INT, MPI_FLOAT, MPI_UNSIGNED, ...
		return 4
	}
}

// dumpiCall is one parsed entering...returning block.
type dumpiCall struct {
	name     string
	cpuEnter float64 // seconds
	cpuRet   float64
	papiIn   float64 // PAPI_TOT_INS at entry; -1 when absent
	ints     map[string]int
	arrays   map[string][]float64
	dtype    string // last annotated datatype name
}

var dumpiHeaderPat = regexp.MustCompile(`^(MPI_\w+)\s+(entering|returning)\s+at\s+walltime\s+([0-9.eE+-]+),\s*cputime\s+([0-9.eE+-]+)\s+seconds`)

// dumpiIntPat matches scalar arguments: "int dest=1", "int root=0 (...)".
var dumpiIntPat = regexp.MustCompile(`^(?:int|MPI_\w+)\s+(\w+)=(-?\d+)`)

// dumpiArrayPat matches counts arrays: "int sendcounts[4]={1, 2, 3, 4}".
var dumpiArrayPat = regexp.MustCompile(`^int\s+(\w+)\[\d*\]=\{([^}]*)\}`)

// dumpiTypePat matches datatype annotations: "datatype=11 (MPI_DOUBLE)".
var dumpiTypePat = regexp.MustCompile(`(?:^|\s)(?:send|recv)?(?:data)?type=\d+\s+\((MPI_\w+)\)`)

// dumpiPAPIPat matches an instruction-counter sample in a perfcounter
// listing: "PAPI_TOT_INS = 12345" or "PAPI_TOT_INS=12345".
var dumpiPAPIPat = regexp.MustCompile(`PAPI_TOT_INS\s*=\s*(\d+)`)

// dumpiStream folds one rank's ASCII dump into actions on the fly.
type dumpiStream struct {
	path  string
	rank  int
	world int
	rate  float64
	sc    *bufio.Scanner
	line  int

	queue []Action // checked actions ready to hand out
	qpos  int
	vols  []float64 // the vector of the last vector collective

	cur      *dumpiCall // open block, nil between calls
	lastCPU  float64    // cputime at the previous call's return; -1 before the first
	lastPAPI float64    // PAPI_TOT_INS at the previous return; -1 when absent
	done     bool
}

func (s *dumpiStream) fail(format string, args ...any) error {
	return &TraceError{Path: s.path, Rank: s.rank,
		Err: fmt.Errorf("line %d: dumpi: %s", s.line, fmt.Sprintf(format, args...))}
}

func (s *dumpiStream) Next(a *Action) (bool, error) {
	for {
		if s.qpos < len(s.queue) {
			*a = s.queue[s.qpos]
			s.qpos++
			return true, nil
		}
		s.queue = s.queue[:0]
		s.qpos = 0
		if s.done {
			return false, nil
		}
		if err := s.advance(); err != nil {
			return false, err
		}
	}
}

// advance consumes input lines until it has enqueued at least one action or
// reached EOF.
func (s *dumpiStream) advance() error {
	for len(s.queue) == 0 {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return err
			}
			if s.cur != nil {
				return s.fail("EOF inside %s call block", s.cur.name)
			}
			s.done = true
			return nil
		}
		s.line++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" {
			continue
		}
		if m := dumpiHeaderPat.FindStringSubmatch(line); m != nil {
			cpu, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return s.fail("bad cputime in %q", line)
			}
			switch m[2] {
			case "entering":
				if s.cur != nil {
					return s.fail("%s entering inside %s call block", m[1], s.cur.name)
				}
				s.cur = &dumpiCall{name: m[1], cpuEnter: cpu, papiIn: -1,
					ints: make(map[string]int), arrays: make(map[string][]float64)}
			case "returning":
				if s.cur == nil || s.cur.name != m[1] {
					return s.fail("%s returning without matching entering", m[1])
				}
				s.cur.cpuRet = cpu
				if err := s.emit(s.cur); err != nil {
					return err
				}
				s.cur = nil
			}
			continue
		}
		if m := dumpiPAPIPat.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return s.fail("bad PAPI_TOT_INS value in %q", line)
			}
			if s.cur != nil {
				if s.cur.papiIn < 0 {
					s.cur.papiIn = v
				}
			} else {
				s.lastPAPI = v // sample taken at the previous call's return
			}
			continue
		}
		if s.cur == nil {
			continue // prose between blocks
		}
		if m := dumpiArrayPat.FindStringSubmatch(line); m != nil {
			var vals []float64
			for _, tok := range strings.Split(m[2], ",") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					continue
				}
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return s.fail("bad %s array element %q", m[1], tok)
				}
				vals = append(vals, v)
			}
			s.cur.arrays[m[1]] = vals
			continue
		}
		if m := dumpiTypePat.FindStringSubmatch(line); m != nil {
			s.cur.dtype = m[1]
			// fall through: the scalar pattern may also match this line
		}
		if m := dumpiIntPat.FindStringSubmatch(line); m != nil {
			v, err := strconv.Atoi(m[2])
			if err == nil {
				s.cur.ints[m[1]] = v
			}
		}
	}
	return nil
}

// emit appends the compute gap preceding call and the call's own action.
func (s *dumpiStream) emit(call *dumpiCall) error {
	// Compute volume since the previous call returned: a PAPI_TOT_INS delta
	// when both boundary samples exist, the CPU-time gap at the calibrated
	// rate otherwise. Before the first call (usually MPI_Init) there is no
	// meaningful baseline.
	if s.lastCPU >= 0 {
		var instr float64
		if s.lastPAPI >= 0 && call.papiIn >= 0 {
			instr = call.papiIn - s.lastPAPI
		} else if gap := call.cpuEnter - s.lastCPU; gap > 0 {
			instr = gap * s.rate
		}
		if instr > 0 {
			if err := s.push(Action{Rank: s.rank, Kind: Compute, Peer: -1, Instructions: instr}); err != nil {
				return s.fail("compute before %s maps to invalid action: %v", call.name, err)
			}
		}
	}
	s.lastCPU = call.cpuRet
	s.lastPAPI = -1

	size := dumpiDatatypeSize(call.dtype)
	count := func(names ...string) int {
		for _, n := range names {
			if v, ok := call.ints[n]; ok {
				return v
			}
		}
		return 0
	}
	vector := func(names ...string) ([]float64, error) {
		for _, n := range names {
			if vals, ok := call.arrays[n]; ok {
				if len(vals) != s.world {
					return nil, s.fail("%s %s has %d entries for %d ranks", call.name, n, len(vals), s.world)
				}
				s.vols = s.vols[:0]
				for _, v := range vals {
					s.vols = append(s.vols, v*size)
				}
				return s.vols, nil
			}
		}
		return nil, s.fail("%s without a counts array", call.name)
	}

	a := Action{Rank: s.rank, Peer: -1}
	switch call.name {
	case "MPI_Init", "MPI_Init_thread":
		a.Kind = Init
	case "MPI_Finalize":
		a.Kind = Finalize
	case "MPI_Send", "MPI_Ssend", "MPI_Rsend", "MPI_Bsend":
		a.Kind, a.Peer, a.Bytes = Send, count("dest"), float64(count("count"))*size
	case "MPI_Isend", "MPI_Issend", "MPI_Irsend", "MPI_Ibsend":
		a.Kind, a.Peer, a.Bytes = ISend, count("dest"), float64(count("count"))*size
	case "MPI_Recv":
		a.Kind, a.Peer, a.Bytes = Recv, count("source"), float64(count("count"))*size
	case "MPI_Irecv":
		a.Kind, a.Peer, a.Bytes = IRecv, count("source"), float64(count("count"))*size
	case "MPI_Wait":
		a.Kind = Wait
	case "MPI_Waitall":
		a.Kind = WaitAll
	case "MPI_Waitany":
		a.Kind = WaitAny
	case "MPI_Waitsome":
		a.Kind = WaitSome
		if a.Count = count("outcount"); a.Count < 1 {
			a.Count = 1
		}
	case "MPI_Barrier":
		a.Kind = Barrier
	case "MPI_Bcast":
		a.Kind, a.Bytes, a.Root = Bcast, float64(count("count"))*size, count("root")
	case "MPI_Reduce":
		a.Kind, a.Bytes, a.Root = Reduce, float64(count("count"))*size, count("root")
	case "MPI_Allreduce":
		a.Kind, a.Bytes = AllReduce, float64(count("count"))*size
	case "MPI_Alltoall":
		a.Kind, a.Bytes = AllToAll, float64(count("sendcount", "count"))*size
	case "MPI_Gather":
		a.Kind, a.Bytes, a.Root = Gather, float64(count("sendcount", "count"))*size, count("root")
	case "MPI_Allgather":
		a.Kind, a.Bytes = AllGather, float64(count("sendcount", "count"))*size
	case "MPI_Alltoallv":
		vols, err := vector("sendcounts")
		if err != nil {
			return err
		}
		a.Kind, a.Volumes = AllToAllV, vols
	case "MPI_Allgatherv":
		vols, err := vector("recvcounts")
		if err != nil {
			return err
		}
		a.Kind, a.Volumes = AllGatherV, vols
	default:
		return nil // unrecognized call: its CPU time still advanced lastCPU
	}
	if err := s.push(a); err != nil {
		return s.fail("%s maps to invalid action: %v", call.name, err)
	}
	return nil
}

// push queues a once it is valid in the world and rank of the dump.
func (s *dumpiStream) push(a Action) error {
	if err := a.ValidateFor(s.rank, s.world); err != nil {
		return err
	}
	s.queue = append(s.queue, a)
	return nil
}
