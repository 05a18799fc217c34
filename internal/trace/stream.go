package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Stream is a pull-based source of actions for one rank, and the one place
// an action is checked: every action a stream yields passes ValidateIn for
// the rank count of the provider it came from and, in the stream of one
// rank, belongs to that rank (ValidateFor). A stream reports any other
// input as a *TraceError naming the file, rank and line (or action index)
// where it knows them, so consumers do not check again.
//
// Next fills *a, which the caller owns and may reuse from call to call,
// and reports ok=false with a nil error at the end of the stream. Every
// field of *a is overwritten. a.Volumes is the stream's own: read-only to
// the caller and valid only until the next call of Next, so a caller that
// keeps the record copies the vector. A stream that rejects an action of
// an unsupported kind (ErrUnsupportedAction) leaves it in *a.
type Stream interface {
	Next(a *Action) (ok bool, err error)
}

// Provider hands out one action stream per rank. Both file-backed traces and
// in-memory generators (the NPB workload models) implement it, so the replay
// engine never needs to materialize a full trace.
type Provider interface {
	// NumRanks is the number of processes in the traced application.
	NumRanks() int
	// Rank opens the action stream of one rank. Each call returns a fresh
	// stream positioned at the beginning.
	Rank(rank int) (Stream, error)
}

// sliceStream streams an in-memory action slice. Its records' vectors are
// the slice's: it hands them out read-only, without copying.
type sliceStream struct {
	actions []Action
	pos     int
}

// Next implements Stream.
func (s *sliceStream) Next(a *Action) (bool, error) {
	if s.pos >= len(s.actions) {
		return false, nil
	}
	*a = s.actions[s.pos]
	s.pos++
	return true, nil
}

// MemProvider serves per-rank in-memory traces.
type MemProvider struct {
	perRank [][]Action
}

// NewMemProvider builds a provider over per-rank action slices. Its streams
// check each action as they yield it, as every stream does (see Stream); a
// rejected action is reported with its index in the rank's slice.
func NewMemProvider(perRank [][]Action) *MemProvider {
	return &MemProvider{perRank: perRank}
}

// NumRanks implements Provider.
func (m *MemProvider) NumRanks() int { return len(m.perRank) }

// Rank implements Provider.
func (m *MemProvider) Rank(rank int) (Stream, error) {
	if rank < 0 || rank >= len(m.perRank) {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, len(m.perRank))
	}
	return Checked(&sliceStream{actions: m.perRank[rank]}, "", rank, len(m.perRank)), nil
}

// fileStream streams a trace file, closing it at EOF, on error, or — for
// streams abandoned mid-trace, e.g. when another rank aborts the replay or
// the runner is cancelled — when the driver calls Close. Without the
// explicit Close path an abandoned stream leaked its descriptor for the
// life of the process.
type fileStream struct {
	f      *os.File
	rd     Stream
	rank   int
	closed bool
}

func (s *fileStream) Next(a *Action) (bool, error) {
	if s.closed {
		return false, fmt.Errorf("trace: %s: stream already closed", s.f.Name())
	}
	ok, err := s.rd.Next(a)
	if err != nil || !ok {
		s.Close()
	}
	if err != nil {
		// Attach the file and rank so parse and validation failures carry
		// their full location ("file: rank N: line L: ...") up to replay.
		var te *TraceError
		if !errors.As(err, &te) {
			err = &TraceError{Path: s.f.Name(), Rank: s.rank, Err: err}
		}
	}
	return ok, err
}

// Close releases the underlying file; it is idempotent.
func (s *fileStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// FileProvider serves traces stored as files, as produced by the acquisition
// tool chain: either one file per rank, or a single merged file shared by
// all ranks (each rank filters its own actions), matching the two layouts of
// the paper's trace-description file.
type FileProvider struct {
	files  []string // len 1 (merged) or NumRanks (per-rank)
	nranks int
}

// NewFileProvider builds a provider over explicit per-rank files.
func NewFileProvider(files []string) (*FileProvider, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no trace files")
	}
	return &FileProvider{files: files, nranks: len(files)}, nil
}

// NewMergedFileProvider serves nranks ranks from one merged trace file.
func NewMergedFileProvider(file string, nranks int) (*FileProvider, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("trace: merged provider needs a positive rank count, got %d", nranks)
	}
	return &FileProvider{files: []string{file}, nranks: nranks}, nil
}

// LoadDescription reads a trace-description file: a list of trace file
// names, one per rank. As in the paper, "if this file contains a single
// entry, all the processes will look for the actions they have to perform
// into the same trace" — in that case nranks tells how many ranks to serve.
// Relative trace paths are resolved against the description file's
// directory.
func LoadDescription(path string, nranks int) (*FileProvider, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dir := filepath.Dir(path)
	var files []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !filepath.IsAbs(line) {
			line = filepath.Join(dir, line)
		}
		files = append(files, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case len(files) == 0:
		return nil, fmt.Errorf("trace: empty description file %s", path)
	case len(files) == 1 && nranks > 1:
		return NewMergedFileProvider(files[0], nranks)
	default:
		return NewFileProvider(files)
	}
}

// NumRanks implements Provider.
func (p *FileProvider) NumRanks() int { return p.nranks }

// Rank implements Provider.
func (p *FileProvider) Rank(rank int) (Stream, error) {
	if rank < 0 || rank >= p.nranks {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, p.nranks)
	}
	path, filter, own := p.files[0], rank, -1
	if len(p.files) > 1 || p.nranks == 1 {
		path, filter, own = p.files[rank], -1, rank
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The reader transparently handles both plain and folded (@folded v1)
	// trace files. A merged file serves each rank its own lines; a per-rank
	// file must hold only its rank's. The provider's rank count arms the
	// communicator-sized validation (out-of-range roots, peers, vector
	// lengths fail here, with a line number, not at replay).
	return &fileStream{f: f, rd: newTextStream(f, filter, own, p.nranks), rank: rank}, nil
}

// WriteSet writes per-rank traces plus a description file into dir, using
// the naming scheme <prefix>_<rank>.trace and <prefix>.desc. It returns the
// description file path.
func WriteSet(dir, prefix string, perRank [][]Action) (string, error) {
	return writeSet(dir, prefix, perRank, Write)
}

// WriteFoldedSet is WriteSet with loop-folded trace files (see Fold); the
// file provider expands them transparently on read.
func WriteFoldedSet(dir, prefix string, perRank [][]Action) (string, error) {
	return writeSet(dir, prefix, perRank, WriteFolded)
}

func writeSet(dir, prefix string, perRank [][]Action, write func(io.Writer, []Action) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var desc []byte
	// One buffer, which write adopts, serves every file; it is large enough
	// that a rank's trace usually reaches its file in one write.
	bw := bufio.NewWriterSize(nil, 64<<10)
	for rank, actions := range perRank {
		name := prefix + "_" + strconv.Itoa(rank) + ".trace"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		bw.Reset(f)
		if err := write(bw, actions); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		desc = append(append(desc, name...), '\n')
	}
	descPath := filepath.Join(dir, prefix+".desc")
	if err := os.WriteFile(descPath, desc, 0o666); err != nil {
		return "", err
	}
	return descPath, nil
}
