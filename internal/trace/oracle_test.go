package trace

// The text ingestion this package had before its byte-level parser, kept
// as the oracle the fuzz targets in fuzz_test.go compare against. The code
// is the old ParseLine, Reader and folded-trace expander with their names
// prefixed, and one change: a loop body is no longer preallocated from the
// directive's length, which let a 20-byte input ask for gigabytes.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// kindByName is the name table the old parser looked action names up in.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// oracleParseRank accepts "p12" or "12".
func oracleParseRank(tok string) (int, error) {
	s := strings.TrimPrefix(tok, "p")
	r, err := strconv.Atoi(s)
	if err != nil || r < 0 {
		return 0, fmt.Errorf("trace: bad rank token %q", tok)
	}
	return r, nil
}

func oracleParseVolume(tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("trace: bad volume token %q", tok)
	}
	return v, nil
}

// oracleParseLine parses one trace line. Blank lines and lines starting with '#'
// yield ok=false with no error.
func oracleParseLine(line string) (a Action, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Action{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Action{}, false, fmt.Errorf("trace: malformed line %q", line)
	}
	rank, err := oracleParseRank(fields[0])
	if err != nil {
		return Action{}, false, err
	}
	kind, known := kindByName[strings.ToLower(fields[1])]
	if !known {
		return Action{}, false, fmt.Errorf("trace: unknown action %q in line %q", fields[1], line)
	}
	a = Action{Rank: rank, Kind: kind, Peer: -1}
	args := fields[2:]
	switch kind {
	case Init, Finalize, Wait, WaitAll, WaitAny, Barrier:
		// no arguments

	case Compute:
		if len(args) != 1 {
			return Action{}, false, fmt.Errorf("trace: compute needs one volume in %q", line)
		}
		if a.Instructions, err = oracleParseVolume(args[0]); err != nil {
			return Action{}, false, err
		}

	case Send, ISend:
		if len(args) != 2 {
			return Action{}, false, fmt.Errorf("trace: %s needs destination and size in %q", kind, line)
		}
		if a.Peer, err = oracleParseRank(args[0]); err != nil {
			return Action{}, false, err
		}
		if a.Bytes, err = oracleParseVolume(args[1]); err != nil {
			return Action{}, false, err
		}

	case Recv, IRecv:
		// v1: "recv p0"; v2: "recv p0 1240".
		if len(args) != 1 && len(args) != 2 {
			return Action{}, false, fmt.Errorf("trace: %s needs a source (and optional size) in %q", kind, line)
		}
		if a.Peer, err = oracleParseRank(args[0]); err != nil {
			return Action{}, false, err
		}
		a.Bytes = -1
		if len(args) == 2 {
			if a.Bytes, err = oracleParseVolume(args[1]); err != nil {
				return Action{}, false, err
			}
		}

	case Bcast, Reduce, Gather:
		if len(args) != 1 && len(args) != 2 {
			return Action{}, false, fmt.Errorf("trace: %s needs a size (and optional root) in %q", kind, line)
		}
		if a.Bytes, err = oracleParseVolume(args[0]); err != nil {
			return Action{}, false, err
		}
		if len(args) == 2 {
			root, err := strconv.Atoi(args[1])
			if err != nil || root < 0 {
				return Action{}, false, fmt.Errorf("trace: bad root %q in %q", args[1], line)
			}
			a.Root = root
		}

	case AllReduce, AllToAll, AllGather:
		if len(args) != 1 {
			return Action{}, false, fmt.Errorf("trace: %s needs a size in %q", kind, line)
		}
		if a.Bytes, err = oracleParseVolume(args[0]); err != nil {
			return Action{}, false, err
		}

	case AllToAllV, AllGatherV:
		// One volume per rank of the communicator:
		//	p0 alltoallv 1024 0 2048 512
		if len(args) == 0 {
			return Action{}, false, fmt.Errorf("trace: %s needs one volume per rank in %q", kind, line)
		}
		a.Volumes = make([]float64, len(args))
		for i, tok := range args {
			if a.Volumes[i], err = oracleParseVolume(tok); err != nil {
				return Action{}, false, err
			}
		}

	case WaitSome:
		if len(args) != 1 {
			return Action{}, false, fmt.Errorf("trace: waitsome needs a completion count in %q", line)
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return Action{}, false, fmt.Errorf("trace: bad waitsome count %q in %q", args[0], line)
		}
		a.Count = n
	}
	if err := a.Validate(); err != nil {
		return Action{}, false, err
	}
	return a, true, nil
}

// oracleReader streams actions from a text trace. It reports I/O and syntax errors
// with line numbers.
type oracleReader struct {
	scanner *bufio.Scanner
	line    int
	// filter, when >= 0, keeps only actions of that rank (merged traces).
	filter int
	// world, when > 0, rejects actions whose peer, root, or volume-vector
	// length falls outside a communicator of that size — with the line
	// number, at parse time, instead of a hang or panic at replay.
	world int
}

// newOracleReader wraps r as a trace action stream over all ranks.
func newOracleReader(r io.Reader) *oracleReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &oracleReader{scanner: sc, filter: -1}
}

// Next returns the next action. ok=false with nil error signals the end of
// the trace.
func (r *oracleReader) Next() (a Action, ok bool, err error) {
	for r.scanner.Scan() {
		r.line++
		a, ok, err := oracleParseLine(r.scanner.Text())
		if err != nil {
			return Action{}, false, fmt.Errorf("line %d: %w", r.line, err)
		}
		if !ok {
			continue
		}
		if r.filter >= 0 && a.Rank != r.filter {
			continue
		}
		if r.world > 0 {
			if err := a.ValidateIn(r.world); err != nil {
				return Action{}, false, fmt.Errorf("line %d: %w", r.line, err)
			}
		}
		return a, true, nil
	}
	if err := r.scanner.Err(); err != nil {
		return Action{}, false, err
	}
	return Action{}, false, nil
}

// readRawLine returns the next raw line of the underlying input, without
// parsing. The folded-trace expander uses it to intercept directives.
func (r *oracleReader) readRawLine() (string, error) {
	if !r.scanner.Scan() {
		if err := r.scanner.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	r.line++
	return r.scanner.Text(), nil
}

// oracleExpandingReader streams a folded trace, expanding loops on the fly. It
// also accepts plain traces (no header), making it a drop-in reader.
type oracleExpandingReader struct {
	rd     *oracleReader
	filter int // < 0 keeps all ranks
	world  int // > 0 enables communicator-sized validation
	// current loop state.
	body      []Action
	remaining int // repetitions left after the buffered one
	pos       int
}

// newOracleExpandingReader reads a plain or folded trace, with communicator-sized
// validation: world > 0 rejects out-of-range peers, roots, and volume-vector
// lengths at read time, with the offending line number.
func newOracleExpandingReader(r io.Reader, filter, world int) Stream {
	br := bufio.NewReaderSize(r, 64*1024)
	head, _ := br.Peek(len(foldedHeader))
	if string(head) != foldedHeader {
		rd := newOracleReader(br)
		rd.filter = filter
		rd.world = world
		return rd
	}
	// Consume the header line.
	if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
		return &oracleErrStream{err: err}
	}
	return &oracleExpandingReader{rd: newOracleReader(br), filter: filter, world: world}
}

type oracleErrStream struct{ err error }

func (s *oracleErrStream) Next() (Action, bool, error) { return Action{}, false, s.err }

// Next implements Stream.
func (e *oracleExpandingReader) Next() (Action, bool, error) {
	for {
		a, ok, err := e.next()
		if err != nil || !ok {
			return a, ok, err
		}
		if e.filter >= 0 && a.Rank != e.filter {
			continue
		}
		if e.world > 0 {
			if err := a.ValidateIn(e.world); err != nil {
				return Action{}, false, fmt.Errorf("line %d: %w", e.rd.line, err)
			}
		}
		return a, true, nil
	}
}

func (e *oracleExpandingReader) next() (Action, bool, error) {
	// Replaying a buffered loop body.
	if e.body != nil {
		if e.pos < len(e.body) {
			a := e.body[e.pos]
			e.pos++
			return a, true, nil
		}
		if e.remaining > 0 {
			e.remaining--
			e.pos = 1
			return e.body[0], true, nil
		}
		e.body = nil
		e.pos = 0
	}
	// Read the underlying stream, intercepting directives.
	line, readErr := e.rd.readRawLine()
	if readErr != nil {
		if readErr == io.EOF {
			return Action{}, false, nil
		}
		return Action{}, false, readErr
	}
	trimmed := strings.TrimSpace(line)
	if strings.HasPrefix(trimmed, "@loop") {
		fields := strings.Fields(trimmed)
		if len(fields) != 3 {
			return Action{}, false, fmt.Errorf("trace: malformed loop directive %q", trimmed)
		}
		count, err1 := strconv.Atoi(fields[1])
		length, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || count < 1 || length < 1 {
			return Action{}, false, fmt.Errorf("trace: bad loop directive %q", trimmed)
		}
		var body []Action
		for len(body) < length {
			bl, err := e.rd.readRawLine()
			if err != nil {
				return Action{}, false, fmt.Errorf("trace: truncated loop body (%d/%d lines): %w", len(body), length, err)
			}
			a, ok, err := oracleParseLine(bl)
			if err != nil {
				return Action{}, false, err
			}
			if !ok {
				continue // comments allowed inside bodies
			}
			body = append(body, a)
		}
		e.body = body
		e.remaining = count - 1
		e.pos = 1
		return body[0], true, nil
	}
	a, ok, err := oracleParseLine(trimmed)
	if err != nil {
		return Action{}, false, err
	}
	if !ok {
		return e.next() // skip blanks/comments
	}
	return a, true, nil
}
