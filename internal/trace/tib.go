package trace

// TIB — the time-independent binary trace format. Text traces are cheap to
// acquire but expensive to replay: every scenario re-parses the same files,
// and the merged single-file layout is re-scanned once per rank, making
// ingestion O(ranks x file size). A .tib file is the compiled form of a
// whole trace set: a compact varint action encoding laid out as one
// contiguous section per rank behind an offset index, so Rank(r) seeks
// straight to its actions and decodes them with no text parsing.
//
// File layout (all fixed-width integers little-endian):
//
//	header (48 bytes):
//	  [4]byte  magic "TIB1"
//	  uint32   version (1 or 2; v2 adds the vector-collective and
//	           wait-set action kinds, every v1 record unchanged)
//	  uint32   rank count
//	  uint32   reserved (zero)
//	  [32]byte source key — SHA-256 over the source trace files'
//	           names, sizes, and mtimes; zero for standalone files
//	index (28 bytes per rank):
//	  uint64   section offset (absolute)
//	  uint64   section length (bytes)
//	  uint64   action count
//	  uint32   CRC-32 (IEEE) of the section bytes
//	uint32   CRC-32 (IEEE) of header+index
//	rank sections, back to back
//
// Every region is covered by a checksum, so truncated or bit-flipped files
// are reported as *TraceError — never decoded silently, never a panic.
//
// Action encoding, per action: one kind byte, the rank as a uvarint, then
// the kind's fields — peers and roots as uvarints, volumes (instructions or
// bytes) in a hybrid form: a uvarint whose low bit 0 means "integral value,
// shifted left one bit", while the single byte 0x01 announces a raw
// little-endian IEEE-754 float64 (fractional acquired volumes, and the v1
// recv's unknown size recorded as -1). Typical actions take 3-6 bytes
// against ~20 bytes of text.
//
// Version 2 appends four kinds: alltoallv and allgatherv carry a uvarint
// vector length followed by that many volumes (one per rank); waitsome
// carries its completion count as a uvarint; waitany has no fields.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

const (
	tibMagic = "TIB1"
	// tibVersion is the version written by the compiler. v2 extends v1 with
	// the vector-collective and wait-set kinds (varint-prefixed volume
	// vectors, a uvarint waitsome count); every v1 record encoding is
	// unchanged, so the reader accepts both versions.
	tibVersion    = 2
	tibMinVersion = 1
	tibHeaderSize = 48
	tibEntrySize  = 28
	// tibMaxRanks bounds the rank count a header may declare, so a
	// corrupted count cannot drive a huge index allocation.
	tibMaxRanks = 1 << 22
)

// TIBExt is the file extension of compiled binary traces.
const TIBExt = ".tib"

// TraceError reports a structurally invalid, truncated, or corrupted trace
// file. Replay surfaces it wrapped (core's replay error carries the rank),
// so callers can match it with errors.As.
type TraceError struct {
	// Path is the offending file, when known.
	Path string
	// Rank is the rank section being read, or -1 for file-level damage.
	Rank int
	// Err is the underlying cause.
	Err error
}

func (e *TraceError) Error() string {
	where := e.Path
	if where == "" {
		where = "trace"
	}
	if e.Rank >= 0 {
		return fmt.Sprintf("%s: rank %d: %v", where, e.Rank, e.Err)
	}
	return fmt.Sprintf("%s: %v", where, e.Err)
}

func (e *TraceError) Unwrap() error { return e.Err }

// ErrCorrupt is the sentinel cause of checksum and structure failures in
// compiled traces, matchable with errors.Is.
var ErrCorrupt = errors.New("corrupt TIB trace")

// ---------------------------------------------------------------------------
// Encoding

// appendVolume encodes a volume (instruction or byte count). Non-negative
// integral values below 2^62 take the compact uvarint path; everything else
// (fractional acquired volumes, the v1 recv's -1) is a 0x01 byte followed
// by the raw float64 bits.
func appendVolume(buf []byte, v float64) []byte {
	if v >= 0 && v < (1<<62) && math.Trunc(v) == v {
		return binary.AppendUvarint(buf, uint64(v)<<1)
	}
	buf = append(buf, 0x01)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendAction encodes one action. Fields a kind does not carry are not
// stored: decoding canonicalizes them (Peer -1, volumes 0), exactly as the
// text parser does.
func appendAction(buf []byte, a *Action) []byte {
	buf = append(buf, byte(a.Kind))
	buf = binary.AppendUvarint(buf, uint64(a.Rank))
	switch a.Kind {
	case Compute:
		buf = appendVolume(buf, a.Instructions)
	case Send, ISend, Recv, IRecv:
		buf = binary.AppendUvarint(buf, uint64(a.Peer))
		buf = appendVolume(buf, a.Bytes)
	case Bcast, Reduce, Gather:
		buf = appendVolume(buf, a.Bytes)
		buf = binary.AppendUvarint(buf, uint64(a.Root))
	case AllReduce, AllToAll, AllGather:
		buf = appendVolume(buf, a.Bytes)
	case AllToAllV, AllGatherV:
		buf = binary.AppendUvarint(buf, uint64(len(a.Volumes)))
		for _, v := range a.Volumes {
			buf = appendVolume(buf, v)
		}
	case WaitSome:
		buf = binary.AppendUvarint(buf, uint64(a.Count))
	}
	return buf
}

// tibSection is one rank's encoded actions.
type tibSection struct {
	data  []byte
	count uint64
}

// encodeStream drains one rank's stream into a section. The stream checked
// every action against the communicator size, so a .tib file only ever
// holds actions replay can execute.
func encodeStream(st Stream) (tibSection, error) {
	var sec tibSection
	var a Action
	for {
		ok, err := st.Next(&a)
		if err != nil {
			return tibSection{}, err
		}
		if !ok {
			return sec, nil
		}
		sec.data = appendAction(sec.data, &a)
		sec.count++
	}
}

// compileSections encodes every rank of src concurrently on a worker pool.
// workers < 1 selects GOMAXPROCS. This is where the merged single-file
// layout's O(ranks x file size) scan cost is paid once, in parallel,
// instead of once per replay.
func compileSections(src Provider, workers int) ([]tibSection, error) {
	n := src.NumRanks()
	if n <= 0 {
		return nil, fmt.Errorf("trace: compiling a provider with no ranks")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	secs := make([]tibSection, n)
	errs := make([]error, n)
	ranks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ranks {
				st, err := src.Rank(r)
				if err != nil {
					errs[r] = err
					continue
				}
				secs[r], errs[r] = encodeStream(st)
				if c, ok := st.(io.Closer); ok {
					c.Close()
				}
			}
		}()
	}
	for r := 0; r < n; r++ {
		ranks <- r
	}
	close(ranks)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trace: compiling rank %d: %w", r, err)
		}
	}
	return secs, nil
}

// writeTIB assembles header, index, and sections and writes them to path
// atomically (temp file + rename), so a crashed compile never leaves a
// half-written cache behind.
func writeTIB(path string, key [32]byte, secs []tibSection) error {
	n := len(secs)
	indexEnd := tibHeaderSize + n*tibEntrySize
	head := make([]byte, indexEnd, indexEnd+4)
	copy(head, tibMagic)
	binary.LittleEndian.PutUint32(head[4:], tibVersion)
	binary.LittleEndian.PutUint32(head[8:], uint32(n))
	copy(head[16:48], key[:])
	offset := uint64(indexEnd + 4)
	for r, sec := range secs {
		e := head[tibHeaderSize+r*tibEntrySize:]
		binary.LittleEndian.PutUint64(e[0:], offset)
		binary.LittleEndian.PutUint64(e[8:], uint64(len(sec.data)))
		binary.LittleEndian.PutUint64(e[16:], sec.count)
		binary.LittleEndian.PutUint32(e[24:], crc32.ChecksumIEEE(sec.data))
		offset += uint64(len(sec.data))
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(head); err != nil {
		tmp.Close()
		return err
	}
	for _, sec := range secs {
		if _, err := tmp.Write(sec.data); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Chmod(0o644); err != nil { // CreateTemp defaults to 0600
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteTIBFile compiles per-rank action slices directly into a standalone
// .tib file (no source key). tracegen's -tib mode uses it to skip the text
// intermediate entirely.
func WriteTIBFile(path string, perRank [][]Action) error {
	secs, err := compileSections(NewMemProvider(perRank), 0)
	if err != nil {
		return err
	}
	return writeTIB(path, [32]byte{}, secs)
}

// Compile encodes any provider into a .tib file with the given source key.
func Compile(src Provider, path string, key [32]byte, workers int) error {
	secs, err := compileSections(src, workers)
	if err != nil {
		return err
	}
	return writeTIB(path, key, secs)
}

// ---------------------------------------------------------------------------
// Decoding

type tibEntry struct {
	offset, length, count uint64
	crc                   uint32
}

// CompiledProvider serves ranks of a compiled .tib trace. Rank(r) reads the
// rank's section with one positioned read — no scan of other ranks' data —
// verifies its checksum, and streams decoded actions from memory. It is
// safe for concurrent Rank calls (the batch runner replays scenarios in
// parallel) and holds one file descriptor until Close.
type CompiledProvider struct {
	path    string
	f       *os.File
	key     [32]byte
	version uint32
	index   []tibEntry
}

func tibFileError(path string, rank int, err error) *TraceError {
	return &TraceError{Path: path, Rank: rank, Err: err}
}

// OpenTIB opens and validates a compiled trace: magic, version, and the
// header/index checksum are checked here; each section's checksum is
// checked when the rank is read.
func OpenTIB(path string) (*CompiledProvider, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	p, err := readTIBHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func readTIBHeader(f *os.File, path string) (*CompiledProvider, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < tibHeaderSize+4 {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, size))
	}
	head := make([]byte, tibHeaderSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, tibFileError(path, -1, err)
	}
	if string(head[:4]) != tibMagic {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:4]))
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version < tibMinVersion || version > tibVersion {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version))
	}
	n := binary.LittleEndian.Uint32(head[8:])
	if n == 0 || n > tibMaxRanks {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: implausible rank count %d", ErrCorrupt, n))
	}
	indexEnd := int64(tibHeaderSize) + int64(n)*tibEntrySize
	if size < indexEnd+4 {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: truncated index", ErrCorrupt))
	}
	headIndex := make([]byte, indexEnd+4)
	if _, err := f.ReadAt(headIndex, 0); err != nil {
		return nil, tibFileError(path, -1, err)
	}
	wantCRC := binary.LittleEndian.Uint32(headIndex[indexEnd:])
	if got := crc32.ChecksumIEEE(headIndex[:indexEnd]); got != wantCRC {
		return nil, tibFileError(path, -1, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt))
	}
	p := &CompiledProvider{path: path, f: f, version: version, index: make([]tibEntry, n)}
	copy(p.key[:], headIndex[16:48])
	dataStart := uint64(indexEnd + 4)
	for r := range p.index {
		e := headIndex[tibHeaderSize+r*tibEntrySize:]
		ent := tibEntry{
			offset: binary.LittleEndian.Uint64(e[0:]),
			length: binary.LittleEndian.Uint64(e[8:]),
			count:  binary.LittleEndian.Uint64(e[16:]),
			crc:    binary.LittleEndian.Uint32(e[24:]),
		}
		if ent.offset < dataStart || ent.offset+ent.length < ent.offset ||
			ent.offset+ent.length > uint64(size) || ent.count > ent.length {
			return nil, tibFileError(path, r, fmt.Errorf("%w: index entry out of bounds", ErrCorrupt))
		}
		p.index[r] = ent
	}
	return p, nil
}

// NumRanks implements Provider.
func (p *CompiledProvider) NumRanks() int { return len(p.index) }

// SourceKey returns the source-trace fingerprint recorded at compile time
// (zero for standalone files).
func (p *CompiledProvider) SourceKey() [32]byte { return p.key }

// Version returns the format version recorded in the file header.
func (p *CompiledProvider) Version() int { return int(p.version) }

// Rank implements Provider: one ReadAt of the rank's section, a checksum
// verification, then in-memory varint decoding.
func (p *CompiledProvider) Rank(rank int) (Stream, error) {
	if rank < 0 || rank >= len(p.index) {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", rank, len(p.index))
	}
	ent := p.index[rank]
	data := make([]byte, ent.length)
	if _, err := p.f.ReadAt(data, int64(ent.offset)); err != nil {
		return nil, tibFileError(p.path, rank, err)
	}
	if got := crc32.ChecksumIEEE(data); got != ent.crc {
		return nil, tibFileError(p.path, rank, fmt.Errorf("%w: section checksum mismatch", ErrCorrupt))
	}
	maxKind := maxKindV1
	if p.version >= 2 {
		maxKind = maxKindV2
	}
	return &tibStream{path: p.path, rank: rank, buf: data, remaining: ent.count,
		maxKind: maxKind, world: len(p.index)}, nil
}

// Close releases the underlying file. Streams already returned by Rank keep
// working: they hold their section in memory.
func (p *CompiledProvider) Close() error { return p.f.Close() }

// tibStream decodes one rank section from memory.
type tibStream struct {
	path      string
	rank      int
	buf       []byte
	pos       int
	remaining uint64
	maxKind   Kind      // highest kind the file's format version may carry
	world     int       // rank count, for communicator-sized validation
	vols      []float64 // the vector of the last vector collective
}

func (s *tibStream) fail(format string, args ...any) (bool, error) {
	return false, tibFileError(s.path, s.rank, fmt.Errorf("%w: offset %d: %s", ErrCorrupt, s.pos, fmt.Sprintf(format, args...)))
}

func (s *tibStream) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(s.buf[s.pos:])
	if n <= 0 {
		return 0, false
	}
	s.pos += n
	return v, true
}

func (s *tibStream) volume() (float64, bool) {
	v, ok := s.uvarint()
	if !ok {
		return 0, false
	}
	if v&1 == 0 {
		return float64(v >> 1), true
	}
	if v != 1 || s.pos+8 > len(s.buf) {
		return 0, false
	}
	bits := binary.LittleEndian.Uint64(s.buf[s.pos:])
	s.pos += 8
	return math.Float64frombits(bits), true
}

// Next implements Stream. The section checksum was verified when the
// stream was opened, so the per-field checks here are pure defense; they
// turn any decoder desync into a *TraceError rather than a panic.
func (s *tibStream) Next(a *Action) (bool, error) {
	if s.remaining == 0 {
		if s.pos != len(s.buf) {
			return s.fail("%d trailing bytes after last action", len(s.buf)-s.pos)
		}
		return false, nil
	}
	if s.pos >= len(s.buf) {
		return s.fail("section exhausted with %d actions missing", s.remaining)
	}
	kind := Kind(s.buf[s.pos])
	s.pos++
	if kind < Init || kind > s.maxKind {
		return s.fail("invalid action kind %d", int(kind))
	}
	rank, ok := s.uvarint()
	if !ok || rank > math.MaxInt32 {
		return s.fail("bad rank field")
	}
	*a = Action{Rank: int(rank), Kind: kind, Peer: -1}
	switch kind {
	case Compute:
		if a.Instructions, ok = s.volume(); !ok {
			return s.fail("bad compute volume")
		}
	case Send, ISend, Recv, IRecv:
		peer, ok := s.uvarint()
		if !ok || peer > math.MaxInt32 {
			return s.fail("bad peer field")
		}
		a.Peer = int(peer)
		if a.Bytes, ok = s.volume(); !ok {
			return s.fail("bad message size")
		}
	case Bcast, Reduce, Gather:
		if a.Bytes, ok = s.volume(); !ok {
			return s.fail("bad message size")
		}
		root, ok := s.uvarint()
		if !ok || root > math.MaxInt32 {
			return s.fail("bad root field")
		}
		a.Root = int(root)
	case AllReduce, AllToAll, AllGather:
		if a.Bytes, ok = s.volume(); !ok {
			return s.fail("bad message size")
		}
	case AllToAllV, AllGatherV:
		n, ok := s.uvarint()
		if !ok || n == 0 || n > tibMaxRanks {
			return s.fail("bad volume-vector length")
		}
		if uint64(len(s.buf)-s.pos) < n {
			// Each volume takes at least one byte; reject before growing
			// the vector a corrupted length field asked for.
			return s.fail("volume vector overruns section")
		}
		s.vols = slices.Grow(s.vols[:0], int(n))[:n]
		for i := range s.vols {
			if s.vols[i], ok = s.volume(); !ok {
				return s.fail("bad volume %d of %d", i, n)
			}
		}
		a.Volumes = s.vols
	case WaitSome:
		cnt, ok := s.uvarint()
		if !ok || cnt == 0 || cnt > math.MaxInt32 {
			return s.fail("bad waitsome count")
		}
		a.Count = int(cnt)
	}
	if err := a.ValidateFor(s.rank, s.world); err != nil {
		return false, tibFileError(s.path, s.rank, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, s.pos, err))
	}
	s.remaining--
	return true, nil
}

// ---------------------------------------------------------------------------
// Cache

// SniffTIB reports whether path is a compiled .tib trace (by magic, not
// extension). It is how the scenario layer accepts a .tib anywhere a
// trace-description file is expected.
func SniffTIB(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return string(head[:]) == tibMagic
}

// sourceKey fingerprints the text trace set a cache was compiled from: the
// format version, the rank count, and each source file's base name, size,
// and mtime. Editing, regenerating, or renaming any source file changes
// the key and invalidates the cache.
func sourceKey(files []string, nranks int) ([32]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "tib:%d:%d\n", tibVersion, nranks)
	for _, file := range files {
		st, err := os.Stat(file)
		if err != nil {
			return [32]byte{}, err
		}
		fmt.Fprintf(h, "%s:%d:%d\n", filepath.Base(file), st.Size(), st.ModTime().UnixNano())
	}
	var key [32]byte
	h.Sum(key[:0])
	return key, nil
}

// CompileDescription compiles the trace set named by a description file —
// merged or per-rank, folded or plain — into a sibling cache at
// descPath+".tib". A cache whose recorded source key still matches the
// current files is reused untouched; rebuilt reports whether a compile
// actually ran. nranks is the merged-layout rank count (as in
// LoadDescription); workers < 1 selects GOMAXPROCS.
func CompileDescription(descPath string, nranks, workers int) (tibPath string, rebuilt bool, err error) {
	fp, err := LoadDescription(descPath, nranks)
	if err != nil {
		return "", false, err
	}
	key, err := sourceKey(fp.files, fp.nranks)
	if err != nil {
		return "", false, err
	}
	tibPath = descPath + TIBExt
	if cached, err := OpenTIB(tibPath); err == nil {
		match := cached.SourceKey() == key && cached.NumRanks() == fp.nranks
		cached.Close()
		if match {
			return tibPath, false, nil
		}
	}
	// Fail fast when the cache directory is not writable (read-only trace
	// stores are common): probing costs one syscall, while discovering it
	// after encoding would waste a full parse of the trace set — per
	// scenario, in a sweep falling back to text every time.
	probe, err := os.CreateTemp(filepath.Dir(tibPath), filepath.Base(tibPath)+".probe*")
	if err != nil {
		return "", false, fmt.Errorf("trace: cache directory not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	if err := Compile(fp, tibPath, key, workers); err != nil {
		return "", false, err
	}
	return tibPath, true, nil
}

// DescriptionEntries returns how many trace files a description file
// lists. A single entry means the merged layout (all ranks in one file)
// unless the trace really has one rank — callers that cannot infer a rank
// count elsewhere (tireplay -compile) use this to demand an explicit one
// instead of silently compiling a wrong single-rank cache.
func DescriptionEntries(descPath string) (int, error) {
	fp, err := LoadDescription(descPath, 0)
	if err != nil {
		return 0, err
	}
	return len(fp.files), nil
}

// OpenDescriptionCached is the transparent ingestion path the scenario
// layer uses: ensure a fresh compiled cache for the description file, then
// open it. The returned provider must be Closed by the caller.
func OpenDescriptionCached(descPath string, nranks, workers int) (*CompiledProvider, error) {
	path, _, err := CompileDescription(descPath, nranks, workers)
	if err != nil {
		return nil, err
	}
	return OpenTIB(path)
}
