package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Text traces are parsed a byte at a time, without copying: a line is split
// into fields in place, action names are matched and numbers converted
// straight from those fields, and error text is built only for a line that
// fails. The grammar is the one strings.Fields, strings.ToLower and the
// strconv conversions define: fields are separated by white space as
// unicode.IsSpace classifies it, action names compare case-insensitively,
// ranks are "p3" or "3", and volumes are anything strconv.ParseFloat reads
// that Action.Validate accepts (finite and non-negative).

// maxLineBytes bounds one line of a text trace, its newline included.
const maxLineBytes = 1 << 20

// readBufferSize is the initial size of a Reader's buffer; it grows, up to
// maxLineBytes, only for a line that does not fit.
const readBufferSize = 64 << 10

// readBuffers recycles the initial buffers of Readers whose input ended. A
// replay opens one stream per rank; allocating and zeroing a fresh buffer
// for each cost a few percent of a text replay.
var readBuffers = sync.Pool{New: func() any { return new([readBufferSize]byte) }}

// errLineTooLong reports a line over maxLineBytes.
var errLineTooLong = errors.New("trace: line exceeds the 1 MiB limit")

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts; it is indexed by any byte so that lookups need no bounds check.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the index of the first rune of s at or after i that is not
// white space (space true) or is white space (space false).
func skip(s string, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return i
}

// fields splits a line the way strings.Fields does, one field at a time.
type fields struct {
	s string
	i int
}

// next returns the next field, or "" after the last one. ASCII runs are
// scanned inline; skip takes over from the first non-ASCII byte.
func (f *fields) next() string {
	s, i := f.s, f.i
	for i < len(s) && asciiSpace[s[i]] {
		i++
	}
	if i < len(s) && s[i] >= utf8.RuneSelf {
		i = skip(s, i, true)
	}
	start := i
	for i < len(s) && s[i] < utf8.RuneSelf && !asciiSpace[s[i]] {
		i++
	}
	if i < len(s) && s[i] >= utf8.RuneSelf {
		i = skip(s, i, false)
	}
	f.i = i
	return s[start:i]
}

// atoi is strconv.Atoi for the results it allows to be non-negative: an
// optional sign, then decimal digits, within the range of int. Up to 18
// bytes cannot overflow the uint64 it accumulates in; longer tokens, which
// only leading zeros keep in range, go to strconv.
func atoi(s string) (int, bool) {
	if len(s) > 18 {
		n, err := strconv.Atoi(s)
		return n, err == nil && n >= 0
	}
	neg := s != "" && s[0] == '-'
	if s != "" && (neg || s[0] == '+') {
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return int(n), n <= math.MaxInt && (!neg || n == 0)
}

// parseRank accepts "p12" or "12".
func parseRank(tok string) (int, bool) { return atoi(strings.TrimPrefix(tok, "p")) }

// parseVolume reads tok as strconv.ParseFloat does and rejects negative
// values; NaN and infinities pass here and fail Action.Validate. Plain
// decimal integers of up to 15 digits, the common case, are converted
// directly: they are below 2^53, so float64 holds them exactly, as
// ParseFloat returns them.
func parseVolume(tok string) (float64, bool) {
	if len(tok) <= 15 {
		var n uint64
		i := 0
		for ; i < len(tok) && tok[i]-'0' <= 9; i++ {
			n = n*10 + uint64(tok[i]-'0')
		}
		if i == len(tok) && i > 0 {
			return float64(n), true
		}
	}
	v, err := strconv.ParseFloat(tok, 64)
	return v, err == nil && !(v < 0)
}

// lookupKind resolves an action name case-insensitively, folding each rune
// with unicode.ToLower as strings.ToLower does, without allocating. Two
// non-ASCII runes fold into the ASCII names: U+0130 to 'i' and the Kelvin
// sign U+212A to 'k'. The switch lists kindNames; TestLookupKindCoversNames
// keeps the two in step.
func lookupKind(name string) (Kind, bool) {
	var lower [len("allgatherv")]byte // the longest name
	n := 0
	for i := 0; i < len(name); n++ {
		if n == len(lower) {
			return 0, false
		}
		c := name[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			i++
		} else {
			r, w := utf8.DecodeRuneInString(name[i:])
			if r = unicode.ToLower(r); r >= utf8.RuneSelf {
				return 0, false
			}
			c, i = byte(r), i+w
		}
		lower[n] = c
	}
	switch string(lower[:n]) {
	case "init":
		return Init, true
	case "finalize":
		return Finalize, true
	case "compute":
		return Compute, true
	case "send":
		return Send, true
	case "isend":
		return ISend, true
	case "recv":
		return Recv, true
	case "irecv":
		return IRecv, true
	case "wait":
		return Wait, true
	case "waitall":
		return WaitAll, true
	case "barrier":
		return Barrier, true
	case "bcast":
		return Bcast, true
	case "reduce":
		return Reduce, true
	case "allreduce":
		return AllReduce, true
	case "alltoall":
		return AllToAll, true
	case "gather":
		return Gather, true
	case "allgather":
		return AllGather, true
	case "alltoallv":
		return AllToAllV, true
	case "allgatherv":
		return AllGatherV, true
	case "waitany":
		return WaitAny, true
	case "waitsome":
		return WaitSome, true
	}
	return 0, false
}

func badRank(tok string) error   { return fmt.Errorf("trace: bad rank token %q", tok) }
func badVolume(tok string) error { return fmt.Errorf("trace: bad volume token %q", tok) }

// ParseLine parses one trace line. Blank lines and lines starting with '#'
// yield ok=false with no error.
func ParseLine(line string) (a Action, ok bool, err error) {
	if ok, err = parseLine(line, &a); !ok {
		return Action{}, false, err
	}
	return a, true, nil
}

// parseLine is ParseLine into *a, which it leaves unspecified unless ok. It
// allocates only the volumes of a vector collective and the error of a
// rejected line. line may alias a buffer its caller reuses: nothing here
// keeps it.
func parseLine(line string, a *Action) (ok bool, err error) {
	f := fields{s: line}
	rankTok := f.next()
	if rankTok == "" || rankTok[0] == '#' {
		return false, nil
	}
	name := f.next()
	if name == "" {
		return false, fmt.Errorf("trace: malformed line %q", strings.TrimSpace(line))
	}
	rank, ok := parseRank(rankTok)
	if !ok {
		return false, badRank(rankTok)
	}
	kind, known := lookupKind(name)
	if !known {
		return false, fmt.Errorf("trace: unknown action %q in line %q", name, strings.TrimSpace(line))
	}
	*a = Action{Rank: rank, Kind: kind, Peer: -1}
	// The first two arguments; nargs counts to three, standing for "more
	// than two". Vector collectives rescan theirs from argsAt.
	argsAt := f
	var arg [2]string
	nargs := 0
	for ; nargs < 3; nargs++ {
		tok := f.next()
		if tok == "" {
			break
		}
		if nargs < 2 {
			arg[nargs] = tok
		}
	}
	switch kind {
	case Init, Finalize, Wait, WaitAll, WaitAny, Barrier:
		// no arguments

	case Compute:
		if nargs != 1 {
			return false, fmt.Errorf("trace: compute needs one volume in %q", strings.TrimSpace(line))
		}
		if a.Instructions, ok = parseVolume(arg[0]); !ok {
			return false, badVolume(arg[0])
		}

	case Send, ISend:
		if nargs != 2 {
			return false, fmt.Errorf("trace: %s needs destination and size in %q", kind, strings.TrimSpace(line))
		}
		if a.Peer, ok = parseRank(arg[0]); !ok {
			return false, badRank(arg[0])
		}
		if a.Bytes, ok = parseVolume(arg[1]); !ok {
			return false, badVolume(arg[1])
		}

	case Recv, IRecv:
		// v1: "recv p0"; v2: "recv p0 1240".
		if nargs != 1 && nargs != 2 {
			return false, fmt.Errorf("trace: %s needs a source (and optional size) in %q", kind, strings.TrimSpace(line))
		}
		if a.Peer, ok = parseRank(arg[0]); !ok {
			return false, badRank(arg[0])
		}
		a.Bytes = -1
		if nargs == 2 {
			if a.Bytes, ok = parseVolume(arg[1]); !ok {
				return false, badVolume(arg[1])
			}
		}

	case Bcast, Reduce, Gather:
		if nargs != 1 && nargs != 2 {
			return false, fmt.Errorf("trace: %s needs a size (and optional root) in %q", kind, strings.TrimSpace(line))
		}
		if a.Bytes, ok = parseVolume(arg[0]); !ok {
			return false, badVolume(arg[0])
		}
		if nargs == 2 {
			if a.Root, ok = atoi(arg[1]); !ok {
				return false, fmt.Errorf("trace: bad root %q in %q", arg[1], strings.TrimSpace(line))
			}
		}

	case AllReduce, AllToAll, AllGather:
		if nargs != 1 {
			return false, fmt.Errorf("trace: %s needs a size in %q", kind, strings.TrimSpace(line))
		}
		if a.Bytes, ok = parseVolume(arg[0]); !ok {
			return false, badVolume(arg[0])
		}

	case AllToAllV, AllGatherV:
		// One volume per rank of the communicator:
		//	p0 alltoallv 1024 0 2048 512
		if nargs == 0 {
			return false, fmt.Errorf("trace: %s needs one volume per rank in %q", kind, strings.TrimSpace(line))
		}
		n := 0
		for count := argsAt; count.next() != ""; {
			n++
		}
		a.Volumes = make([]float64, n)
		for i := range a.Volumes {
			tok := argsAt.next()
			if a.Volumes[i], ok = parseVolume(tok); !ok {
				return false, badVolume(tok)
			}
		}

	case WaitSome:
		if nargs != 1 {
			return false, fmt.Errorf("trace: waitsome needs a completion count in %q", strings.TrimSpace(line))
		}
		if a.Count, ok = atoi(arg[0]); !ok || a.Count < 1 {
			return false, fmt.Errorf("trace: bad waitsome count %q in %q", arg[0], strings.TrimSpace(line))
		}
	}
	if err := a.Validate(); err != nil {
		return false, err
	}
	return true, nil
}

// lineReader splits its input into lines through one buffer, which it
// reuses for every line and grows, up to maxLineBytes, only for a line that
// does not fit.
type lineReader struct {
	src     io.Reader
	buf     []byte
	pooled  *[readBufferSize]byte // buf's array while it came from readBuffers
	r, w    int                   // buf[r:w] is input read but not yet returned
	scanned int                   // buf[r:r+scanned] holds no newline
	err     error                 // sticky: the read error, io.EOF, or errLineTooLong
	line    int                   // number of the last line returned
}

// next returns the next line without its newline, or io.EOF at the end of
// the input. The line aliases the buffer: it is valid until the next call.
// Data read before a read error comes first, as bufio.Scanner delivers it.
func (l *lineReader) next() (string, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.r+l.scanned:l.w], '\n'); i >= 0 {
			end := l.r + l.scanned + i
			return l.take(end, end+1), nil
		}
		l.scanned = l.w - l.r
		if l.err != nil {
			if l.r == l.w || l.err == errLineTooLong {
				l.release()
				return "", l.err
			}
			return l.take(l.w, l.w), nil // a last line without a newline
		}
		l.fill()
	}
}

// release hands a pooled buffer back once the input has ended, when no
// returned line aliases it any more.
func (l *lineReader) release() {
	if l.pooled != nil {
		readBuffers.Put(l.pooled)
	}
	l.buf, l.pooled, l.r, l.w, l.scanned = nil, nil, 0, 0, 0
}

// take returns buf[r:end] as the next line and resumes reading at next.
func (l *lineReader) take(end, next int) string {
	line := l.buf[l.r:end]
	l.r, l.scanned = next, 0
	l.line++
	if len(line) == 0 {
		return ""
	}
	return unsafe.String(&line[0], len(line))
}

// fill reads more input, first moving the unreturned partial line to the
// front of the buffer and, when it fills the whole buffer, doubling that.
func (l *lineReader) fill() {
	if l.r > 0 {
		l.w = copy(l.buf, l.buf[l.r:l.w])
		l.r = 0
	}
	switch {
	case l.buf == nil:
		l.pooled = readBuffers.Get().(*[readBufferSize]byte)
		l.buf = l.pooled[:]
	case l.w == len(l.buf):
		if len(l.buf) >= maxLineBytes {
			l.err = errLineTooLong
			return
		}
		buf := make([]byte, min(2*len(l.buf), maxLineBytes))
		copy(buf, l.buf[:l.w])
		if l.pooled != nil {
			readBuffers.Put(l.pooled)
		}
		l.buf, l.pooled = buf, nil
	}
	// Like bufio.Scanner, give up on a reader that keeps returning nothing.
	for range 100 {
		n, err := l.src.Read(l.buf[l.w:])
		l.w += n
		if err != nil {
			l.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	l.err = io.ErrNoProgress
}

// hasPrefix reports whether the unread input starts with p, reading as much
// of it as that takes.
func (l *lineReader) hasPrefix(p string) bool {
	for l.w-l.r < len(p) && l.err == nil {
		l.fill()
	}
	return l.w-l.r >= len(p) && string(l.buf[l.r:l.r+len(p)]) == p
}

// Reader streams actions from a text trace, plain or folded (see Fold). It
// reports I/O and syntax errors with line numbers.
type Reader struct {
	in lineReader
	// filter, when >= 0, keeps only actions of that rank (merged traces).
	filter int
	// world, when > 0, rejects actions whose peer, root, or volume-vector
	// length falls outside a communicator of that size — with the line
	// number, at parse time, instead of a hang or panic at replay.
	world int
	// folded enables @loop directives: the input began with foldedHeader.
	folded bool
	// body is the loop being expanded; body[pos] is served next, and reps
	// more passes follow the current one.
	body      []lineAction
	pos, reps int
}

// lineAction is a loop-body action and the line it was read from.
type lineAction struct {
	Action
	line int
}

// NewReader wraps r as a trace action stream over all ranks.
func NewReader(r io.Reader) *Reader {
	return &Reader{in: lineReader{src: r}, filter: -1}
}

// SetWorld enables communicator-sized validation (see ValidateIn) on every
// action the reader returns.
func (r *Reader) SetWorld(n int) { r.world = n }

// NewFilteredReader is NewReader restricted to actions of one rank; it is
// how a per-process replayer consumes the "single entry" merged-trace layout
// the paper's trace-description file supports.
func NewFilteredReader(r io.Reader, rank int) *Reader {
	rd := NewReader(r)
	rd.filter = rank
	return rd
}

// Next returns the next action. ok=false with nil error signals the end of
// the trace.
func (r *Reader) Next() (a Action, ok bool, err error) {
	for {
		var line int
		if r.pos < len(r.body) {
			a, line = r.body[r.pos].Action, r.body[r.pos].line
			if r.pos++; r.pos == len(r.body) && r.reps > 0 {
				r.pos, r.reps = 0, r.reps-1
			}
		} else {
			text, err := r.in.next()
			if err == io.EOF {
				return Action{}, false, nil
			}
			if err != nil {
				return Action{}, false, fmt.Errorf("line %d: %w", r.in.line+1, err)
			}
			line = r.in.line
			if r.folded && strings.HasPrefix(text[skip(text, 0, true):], "@loop") {
				if err := r.readLoop(text); err != nil {
					return Action{}, false, err
				}
				continue
			}
			ok, err := parseLine(text, &a)
			if err != nil {
				return Action{}, false, fmt.Errorf("line %d: %w", line, err)
			}
			if !ok {
				continue
			}
		}
		if r.filter >= 0 && a.Rank != r.filter {
			continue
		}
		if r.world > 0 {
			if err := a.ValidateIn(r.world); err != nil {
				return Action{}, false, fmt.Errorf("line %d: %w", line, err)
			}
		}
		return a, true, nil
	}
}

// readLoop parses the "@loop count length" directive on the current line and
// the length action lines of its body, which Next then serves count times.
func (r *Reader) readLoop(directive string) error {
	at := r.in.line
	f := fields{s: directive}
	f.next() // "@loop"
	countTok, lengthTok := f.next(), f.next()
	if lengthTok == "" || f.next() != "" {
		return fmt.Errorf("line %d: trace: malformed loop directive %q", at, strings.TrimSpace(directive))
	}
	count, ok1 := atoi(countTok)
	length, ok2 := atoi(lengthTok)
	if !ok1 || !ok2 || count < 1 || length < 1 {
		return fmt.Errorf("line %d: trace: bad loop directive %q", at, strings.TrimSpace(directive))
	}
	// Until the body is complete, r.body keeps its old length, which
	// r.pos has reached: a failed loop serves nothing.
	body := r.body[:0]
	for len(body) < length {
		text, err := r.in.next()
		if err == io.EOF {
			return fmt.Errorf("line %d: trace: truncated loop body (%d/%d lines): %w", at, len(body), length, err)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", r.in.line+1, err)
		}
		var a Action
		ok, err := parseLine(text, &a)
		if err != nil {
			return fmt.Errorf("line %d: %w", r.in.line, err)
		}
		if ok { // comments are allowed inside bodies
			body = append(body, lineAction{a, r.in.line})
		}
	}
	r.body, r.pos, r.reps = body, 0, count-1
	return nil
}

// ReadAll parses a whole trace into memory.
func ReadAll(r io.Reader) ([]Action, error) {
	rd := NewReader(r)
	var out []Action
	for {
		a, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, a)
	}
}

// Write renders actions in canonical text form, one per line.
func Write(w io.Writer, actions []Action) error {
	tw := newTextWriter(w)
	for i := range actions {
		if err := tw.action(&actions[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// textWriter buffers text trace lines, encoding each into one line buffer
// that it reuses for the whole file.
type textWriter struct {
	*bufio.Writer
	line []byte
}

func newTextWriter(w io.Writer) *textWriter {
	return &textWriter{Writer: bufio.NewWriter(w), line: make([]byte, 0, 128)}
}

// action writes a's line once a validates.
func (tw *textWriter) action(a *Action) error {
	if err := a.Validate(); err != nil {
		return err
	}
	tw.line = append(a.appendText(tw.line[:0]), '\n')
	_, err := tw.Write(tw.line)
	return err
}
