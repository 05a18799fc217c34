package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Text traces are decoded a line at a time, in one left-to-right pass and
// without copying: each token is delimited, and its digits accumulated, in
// the same scan; the action name is resolved by a collision-free table and
// one compare, after lowering into a small buffer unless it is written in
// lower case already; and error text is built only for a line that fails. The grammar is the one strings.Fields, strings.ToLower
// and the strconv conversions define: fields are separated by white space
// as unicode.IsSpace classifies it, action names compare case-insensitively,
// ranks are "p3" or "3", and volumes are anything strconv.ParseFloat reads
// that Action.Validate accepts (finite and non-negative).

// maxLineBytes bounds one line of a text trace, its newline included.
const maxLineBytes = 1 << 20

// readBufferSize is the initial size of a textReader's buffer; it grows, up to
// maxLineBytes, only for a line that does not fit.
const readBufferSize = 64 << 10

// readBuffers recycles the initial buffers of textReaders whose input ended. A
// replay opens one stream per rank; allocating and zeroing a fresh buffer
// for each cost a few percent of a text replay.
var readBuffers = sync.Pool{New: func() any { return new([readBufferSize]byte) }}

// errLineTooLong reports a line over maxLineBytes.
var errLineTooLong = errors.New("trace: line exceeds the 1 MiB limit")

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts; it is indexed by any byte so that lookups need no bounds check.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the index of the first rune of s at or after i that is not
// white space (space true) or is white space (space false), as
// unicode.IsSpace classifies it.
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

// maxDigits is the most decimal digits an int holds whatever they are: 18
// with 64 bits, 9 with 32.
const maxDigits = strconv.IntSize * 9 / 32

// arg is a token and, when it is 1 to maxDigits decimal digits after an
// optional 'p', their value n.
type arg struct {
	tok   string
	n     int
	class digitClass
}

// digitClass classifies a token by its digits.
type digitClass uint8

const (
	notPlain digitClass = iota // anything else
	plain                      // decimal digits only
	pDigits                    // 'p' and then decimal digits
)

// volume reads the token as strconv.ParseFloat does and rejects negative
// values; NaN and infinities pass here and fail Action.Validate. Plain
// digits are converted from their accumulated value: float64 rounds it
// exactly as ParseFloat rounds the decimal.
func (t *arg) volume() (float64, bool) {
	if t.class == plain {
		return float64(t.n), true
	}
	return t.parseVolume()
}

// rank reads a rank token, "p12" or "12", as strconv.Atoi reads what
// follows the optional 'p', and accepts a non-negative result.
func (t *arg) rank() (int, bool) {
	if t.class != notPlain {
		return t.n, true
	}
	return parseRank(t.tok)
}

// int reads the token as strconv.Atoi does and accepts a non-negative
// result.
func (t *arg) int() (int, bool) {
	if t.class == plain {
		return t.n, true
	}
	return atoi(t.tok)
}

// next skips the white space of s at i and reads the token after it into
// t: an optional 'p', then the token's digits, accumulated as far as they
// run. Any other rune makes the token not plain. next returns where the
// token ends, or -1 when s has no token left.
func (t *arg) next(s string, i int) int {
	for ; i < len(s) && asciiSpace[s[i]]; i++ {
	}
	if i < len(s) && s[i] >= utf8.RuneSelf {
		i = skip(s, i, true)
	}
	if i == len(s) {
		return -1
	}
	start, class := i, plain
	if s[i] == 'p' {
		i, class = i+1, pDigits
	}
	n, first := 0, i
	for ; i < len(s); i++ {
		c := s[i]
		if d := c - '0'; d <= 9 {
			n = n*10 + int(d)
			continue
		}
		if asciiSpace[c] {
			break
		}
		if c >= utf8.RuneSelf {
			if end := skip(s, i, false); end != i {
				i, class = end, notPlain
			}
			break
		}
		class = notPlain
	}
	if i == first || i-first > maxDigits {
		class = notPlain
	}
	*t = arg{s[start:i], n, class}
	return i
}

// parseVolume, parseRank and atoi are the paths of the tokens that are not
// plain digits, kept out of line so that arg's methods inline.
//
//go:noinline
func (t *arg) parseVolume() (float64, bool) {
	v, err := strconv.ParseFloat(t.tok, 64)
	return v, err == nil && !(v < 0)
}

//go:noinline
func parseRank(tok string) (int, bool) { return atoi(strings.TrimPrefix(tok, "p")) }

// atoi is strconv.Atoi restricted to non-negative results.
//
//go:noinline
func atoi(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

// kindSlots resolves a lowered action name of length n, first byte f and
// last byte l: slot kindSlot(n, f, l) holds one plus the kind of the only
// name that can be there, or 0. The slot function is collision-free over
// kindNames, which building the table checks.
var kindSlots = func() (t [64]uint8) {
	for k, name := range kindNames {
		h := kindSlot(len(name), name[0], name[len(name)-1])
		if t[h] != 0 {
			panic("trace: action names " + name + " and " + kindNames[t[h]-1] + " share a slot")
		}
		t[h] = uint8(k + 1)
	}
	return t
}()

func kindSlot(n int, first, last byte) int { return (n + 3*int(first) + 10*int(last)) & 63 }

// kindLower resolves a non-empty name written in lower case: its slot's
// name is the only one it can be.
func kindLower(name string) (Kind, bool) {
	slot := kindSlots[kindSlot(len(name), name[0], name[len(name)-1])]
	return Kind(slot - 1), slot != 0 && kindNames[slot-1] == name
}

// kindOf resolves an action name case-insensitively, folding each rune
// with unicode.ToLower as strings.ToLower does: the name is lowered into a
// small buffer, then resolved by kindLower. Setting the 0x20 bit lowers an
// ASCII letter and keeps any other ASCII byte off the letters, which is all
// the names hold. Two non-ASCII runes fold into the ASCII names: U+0130 to
// 'i' and the Kelvin sign U+212A to 'k'.
func kindOf(name string) (Kind, bool) {
	var lower [len("allgatherv")]byte // the longest name
	n := 0
	for i := 0; i < len(name); n++ {
		if n == len(lower) {
			return 0, false
		}
		c := name[i]
		if c < utf8.RuneSelf {
			c |= 0x20
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
	if n == 0 {
		return 0, false
	}
	return kindLower(string(lower[:n]))
}

func badRank(tok string) error   { return fmt.Errorf("trace: bad rank token %q", tok) }
func badVolume(tok string) error { return fmt.Errorf("trace: bad volume token %q", tok) }

// parseLine decodes one line into *a, which it leaves unspecified unless
// ok, without validating the action it decodes. A vector collective's
// volumes go to *vols, whose array it reuses, and a.Volumes is *vols. It
// allocates only when *vols must grow, and the error of a rejected line.
// line may alias a buffer its caller reuses: nothing here keeps it.
//
// The line is scanned once, left to right. Each token's digits are
// accumulated as it is delimited; the action is resolved as soon as its
// name ends, and then a vector collective's volumes are converted as they
// are reached, while a scalar action keeps its first two arguments and
// counts up to three, standing for "more than two".
func parseLine(line string, a *Action, vols *[]float64) (ok bool, err error) {
	var rankTok arg
	i := rankTok.next(line, 0)
	if i < 0 || rankTok.tok[0] == '#' {
		return false, nil
	}
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	if i < len(line) && line[i] >= utf8.RuneSelf {
		i = skip(line, i, true)
	}
	if i == len(line) {
		return false, fmt.Errorf("trace: malformed line %q", strings.TrimSpace(line))
	}
	rank, ok := rankTok.rank()
	if !ok {
		return false, badRank(rankTok.tok)
	}
	// The action name. A name of lower-case letters, the spelling writers
	// emit, needs no lowering; any other goes to kindOf.
	start := i
	for i < len(line) && line[i]-'a' < 26 {
		i++
	}
	var kind Kind
	if i == len(line) || asciiSpace[line[i]] {
		kind, ok = kindLower(line[start:i])
	} else {
		i = skip(line, i, false)
		kind, ok = kindOf(line[start:i])
	}
	if !ok {
		return false, fmt.Errorf("trace: unknown action %q in line %q", line[start:i], strings.TrimSpace(line))
	}
	*a = Action{Rank: rank, Kind: kind, Peer: -1}
	// A vector collective's volumes are converted as they are reached; a
	// scalar action keeps its first two arguments and counts up to three,
	// standing for "more than two".
	var args [2]arg
	nargs := 0
	if kind.HasVolumes() {
		*vols = (*vols)[:0]
		var t arg
		for i = t.next(line, i); i >= 0; i = t.next(line, i) {
			v, ok := t.volume()
			if !ok {
				return false, badVolume(t.tok)
			}
			*vols = append(*vols, v)
		}
	} else {
		var rest arg
		for ; nargs < 3; nargs++ {
			t := &rest
			if nargs < 2 {
				t = &args[nargs]
			}
			if i = t.next(line, i); i < 0 {
				break
			}
		}
	}
	switch kind {
	case Init, Finalize, Wait, WaitAll, WaitAny, Barrier:
		// no arguments

	case Compute:
		if nargs != 1 {
			return false, fmt.Errorf("trace: compute needs one volume in %q", strings.TrimSpace(line))
		}
		if a.Instructions, ok = args[0].volume(); !ok {
			return false, badVolume(args[0].tok)
		}

	case Send, ISend:
		if nargs != 2 {
			return false, fmt.Errorf("trace: %s needs destination and size in %q", kind, strings.TrimSpace(line))
		}
		if a.Peer, ok = args[0].rank(); !ok {
			return false, badRank(args[0].tok)
		}
		if a.Bytes, ok = args[1].volume(); !ok {
			return false, badVolume(args[1].tok)
		}

	case Recv, IRecv:
		// v1: "recv p0"; v2: "recv p0 1240".
		if nargs != 1 && nargs != 2 {
			return false, fmt.Errorf("trace: %s needs a source (and optional size) in %q", kind, strings.TrimSpace(line))
		}
		if a.Peer, ok = args[0].rank(); !ok {
			return false, badRank(args[0].tok)
		}
		a.Bytes = -1
		if nargs == 2 {
			if a.Bytes, ok = args[1].volume(); !ok {
				return false, badVolume(args[1].tok)
			}
		}

	case Bcast, Reduce, Gather:
		if nargs != 1 && nargs != 2 {
			return false, fmt.Errorf("trace: %s needs a size (and optional root) in %q", kind, strings.TrimSpace(line))
		}
		if a.Bytes, ok = args[0].volume(); !ok {
			return false, badVolume(args[0].tok)
		}
		if nargs == 2 {
			if a.Root, ok = args[1].int(); !ok {
				return false, fmt.Errorf("trace: bad root %q in %q", args[1].tok, strings.TrimSpace(line))
			}
		}

	case AllReduce, AllToAll, AllGather:
		if nargs != 1 {
			return false, fmt.Errorf("trace: %s needs a size in %q", kind, strings.TrimSpace(line))
		}
		if a.Bytes, ok = args[0].volume(); !ok {
			return false, badVolume(args[0].tok)
		}

	case AllToAllV, AllGatherV:
		// One volume per rank of the communicator:
		//	p0 alltoallv 1024 0 2048 512
		if len(*vols) == 0 {
			return false, fmt.Errorf("trace: %s needs one volume per rank in %q", kind, strings.TrimSpace(line))
		}
		a.Volumes = *vols

	case WaitSome:
		if nargs != 1 {
			return false, fmt.Errorf("trace: waitsome needs a completion count in %q", strings.TrimSpace(line))
		}
		if a.Count, ok = args[0].int(); !ok || a.Count < 1 {
			return false, fmt.Errorf("trace: bad waitsome count %q in %q", args[0].tok, strings.TrimSpace(line))
		}
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

// textReader streams actions from a text trace, plain or folded (see Fold). It
// reports I/O, syntax and validation errors with line numbers.
type textReader struct {
	in lineReader
	// filter, when >= 0, keeps only actions of that rank (merged traces).
	filter int
	// own, when >= 0, rejects actions of any other rank (a rank's own
	// trace file).
	own int
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
	// vols is the vector of the last vector collective decoded from a line.
	vols []float64
}

// lineAction is a loop-body action and the line it was read from.
type lineAction struct {
	Action
	line int
}

// Next implements Stream. Every action it yields passes ValidateIn for the
// reader's world; an action of another rank is skipped by a filtered
// reader, and fails a rank's own trace.
func (r *textReader) Next(a *Action) (bool, error) {
	for {
		var line int
		var err error
		if r.pos < len(r.body) {
			b := &r.body[r.pos]
			*a, line = b.Action, b.line
			if r.pos++; r.pos == len(r.body) && r.reps > 0 {
				r.pos, r.reps = 0, r.reps-1
			}
			if r.filter >= 0 && a.Rank != r.filter {
				continue
			}
			// readLoop validated the body; what remains needs the world.
			if err = a.validateSized(r.world); err == nil && r.own >= 0 && a.Rank != r.own {
				err = a.foreign(r.own)
			}
		} else {
			text, rerr := r.in.next()
			if rerr == io.EOF {
				return false, nil
			}
			if rerr != nil {
				return false, fmt.Errorf("line %d: %w", r.in.line+1, rerr)
			}
			line = r.in.line
			if r.folded && strings.HasPrefix(text[skip(text, 0, true):], "@loop") {
				if err := r.readLoop(text); err != nil {
					return false, err
				}
				continue
			}
			ok, perr := parseLine(text, a, &r.vols)
			if perr != nil {
				return false, fmt.Errorf("line %d: %w", line, perr)
			}
			if !ok {
				continue
			}
			if r.filter >= 0 && a.Rank != r.filter {
				// Another rank's line of a merged trace: checked, not served.
				if err := a.Validate(); err != nil {
					return false, fmt.Errorf("line %d: %w", line, err)
				}
				continue
			}
			err = a.ValidateFor(r.own, r.world)
		}
		if err != nil {
			return false, fmt.Errorf("line %d: %w", line, err)
		}
		return true, nil
	}
}

// readHeader consumes the folded-trace header when the input starts with
// one, enabling @loop directives. A read error is sticky: the first Next
// reports it.
func (r *textReader) readHeader() {
	if r.in.hasPrefix(foldedHeader) {
		r.folded = true
		r.in.next()
	}
}

// readLoop parses the "@loop count length" directive on the current line and
// the length action lines of its body, which Next then serves count times.
// Each body action is validated here, once, and owns its vector.
func (r *textReader) readLoop(directive string) error {
	at := r.in.line
	var f [3]string // "@loop", count, length
	nf := 0
	for i := skip(directive, 0, true); i < len(directive) && nf <= len(f); i = skip(directive, i, true) {
		end := skip(directive, i, false)
		if nf < len(f) {
			f[nf] = directive[i:end]
		}
		nf, i = nf+1, end
	}
	if nf != len(f) {
		return fmt.Errorf("line %d: trace: malformed loop directive %q", at, strings.TrimSpace(directive))
	}
	count, ok1 := atoi(f[1])
	length, ok2 := atoi(f[2])
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
		ok, err := parseLine(text, &a, &r.vols)
		if ok {
			err = a.Validate()
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", r.in.line, err)
		}
		if ok { // comments are allowed inside bodies
			a.Volumes = slices.Clone(a.Volumes)
			body = append(body, lineAction{a, r.in.line})
		}
	}
	r.body, r.pos, r.reps = body, 0, count-1
	return nil
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
