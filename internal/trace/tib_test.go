package trace

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleTraceSet builds a canonical per-rank action set covering every
// action kind, both volume encodings (compact integral and raw float64,
// including the v1 recv's unknown size -1), and multi-byte varint values.
func sampleTraceSet(nranks int) [][]Action {
	perRank := make([][]Action, nranks)
	for r := 0; r < nranks; r++ {
		peer := (r + 1) % nranks
		from := (r + nranks - 1) % nranks
		perRank[r] = []Action{
			{Rank: r, Kind: Init, Peer: -1},
			{Rank: r, Kind: Compute, Instructions: 956140, Peer: -1},
			{Rank: r, Kind: Compute, Instructions: 1234.5678, Peer: -1}, // acquired (fractional) volume
			{Rank: r, Kind: Send, Peer: peer, Bytes: 1240},
			{Rank: r, Kind: Recv, Peer: from, Bytes: 1240},
			{Rank: r, Kind: ISend, Peer: peer, Bytes: 1 << 20},
			{Rank: r, Kind: IRecv, Peer: from, Bytes: -1}, // v1 recv: size unknown
			{Rank: r, Kind: Wait, Peer: -1},
			{Rank: r, Kind: Wait, Peer: -1},
			{Rank: r, Kind: WaitAll, Peer: -1},
			{Rank: r, Kind: Barrier, Peer: -1},
			{Rank: r, Kind: Bcast, Peer: -1, Bytes: 40},
			{Rank: r, Kind: Reduce, Peer: -1, Bytes: 8, Root: nranks - 1},
			{Rank: r, Kind: AllReduce, Peer: -1, Bytes: 40},
			{Rank: r, Kind: AllToAll, Peer: -1, Bytes: 65536},
			{Rank: r, Kind: Gather, Peer: -1, Bytes: 123456789012, Root: 0},
			{Rank: r, Kind: AllGather, Peer: -1, Bytes: 16},
			{Rank: r, Kind: Finalize, Peer: -1},
		}
	}
	return perRank
}

// sampleTraceSetV2 extends the canonical set with the version-2 vocabulary:
// wait-handle drains and per-peer vector collectives (uneven volumes, zero
// self-entries, and a fractional volume to force the raw float encoding).
func sampleTraceSetV2(nranks int) [][]Action {
	perRank := sampleTraceSet(nranks)
	for r := 0; r < nranks; r++ {
		vols := make([]float64, nranks)
		gvols := make([]float64, nranks)
		for k := 0; k < nranks; k++ {
			if k != r {
				vols[k] = float64(1024 * (1 + (r+k)%3))
			}
			gvols[k] = 256*float64(k+1) + 0.25
		}
		tail := []Action{
			{Rank: r, Kind: ISend, Peer: (r + 1) % nranks, Bytes: 4096},
			{Rank: r, Kind: IRecv, Peer: (r + nranks - 1) % nranks, Bytes: 4096},
			{Rank: r, Kind: WaitAny, Peer: -1},
			{Rank: r, Kind: WaitSome, Peer: -1, Count: 1},
			{Rank: r, Kind: AllToAllV, Peer: -1, Volumes: vols},
			{Rank: r, Kind: AllGatherV, Peer: -1, Volumes: gvols},
			{Rank: r, Kind: Finalize, Peer: -1},
		}
		perRank[r] = append(perRank[r][:len(perRank[r])-1], tail...)
	}
	return perRank
}

func materializeProvider(t *testing.T, p Provider) [][]Action {
	t.Helper()
	out := make([][]Action, p.NumRanks())
	for r := 0; r < p.NumRanks(); r++ {
		st, err := p.Rank(r)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for {
			var a Action
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			if !ok {
				break
			}
			a.Volumes = slices.Clone(a.Volumes) // the stream's, until the next call
			out[r] = append(out[r], a)
		}
	}
	return out
}

func TestTIBRoundTrip(t *testing.T) {
	perRank := sampleTraceSet(4)
	path := filepath.Join(t.TempDir(), "set.tib")
	if err := WriteTIBFile(path, perRank); err != nil {
		t.Fatal(err)
	}
	p, err := OpenTIB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumRanks() != 4 {
		t.Fatalf("NumRanks = %d, want 4", p.NumRanks())
	}
	got := materializeProvider(t, p)
	if !reflect.DeepEqual(got, perRank) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, perRank)
	}
}

func TestTIBSmallerThanText(t *testing.T) {
	perRank := sampleTraceSet(8)
	dir := t.TempDir()
	desc, err := WriteSet(dir, "s", perRank)
	if err != nil {
		t.Fatal(err)
	}
	tibPath, rebuilt, err := CompileDescription(desc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("first compile reported a cache hit")
	}
	var textSize, tibSize int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == ".trace" {
			textSize += info.Size()
		}
	}
	st, err := os.Stat(tibPath)
	if err != nil {
		t.Fatal(err)
	}
	tibSize = st.Size()
	if tibSize >= textSize {
		t.Fatalf("compiled trace (%d bytes) not smaller than text (%d bytes)", tibSize, textSize)
	}
}

// The compiled cache must be reused while the sources are unchanged and
// rebuilt as soon as any source file's mtime or size moves.
func TestCompileDescriptionCacheInvalidation(t *testing.T) {
	perRank := sampleTraceSet(3)
	dir := t.TempDir()
	desc, err := WriteSet(dir, "c", perRank)
	if err != nil {
		t.Fatal(err)
	}

	if _, rebuilt, err := CompileDescription(desc, 0, 0); err != nil || !rebuilt {
		t.Fatalf("first compile: rebuilt=%v err=%v", rebuilt, err)
	}
	if _, rebuilt, err := CompileDescription(desc, 0, 0); err != nil || rebuilt {
		t.Fatalf("second compile: rebuilt=%v err=%v (want cache hit)", rebuilt, err)
	}

	victim := filepath.Join(dir, "c_1.trace")
	future := time.Now().Add(3 * time.Second)
	if err := os.Chtimes(victim, future, future); err != nil {
		t.Fatal(err)
	}
	if _, rebuilt, err := CompileDescription(desc, 0, 0); err != nil || !rebuilt {
		t.Fatalf("after touch: rebuilt=%v err=%v (want rebuild)", rebuilt, err)
	}
	if _, rebuilt, err := CompileDescription(desc, 0, 0); err != nil || rebuilt {
		t.Fatalf("after rebuild: rebuilt=%v err=%v (want cache hit)", rebuilt, err)
	}
}

// Compiling a merged single-file trace must yield exactly what per-rank
// filtered text reading yields, and folded traces must compile from their
// expanded form.
func TestCompileMergedAndFoldedEquivalence(t *testing.T) {
	perRank := sampleTraceSet(3)

	t.Run("merged", func(t *testing.T) {
		dir := t.TempDir()
		var merged []Action
		for i := range perRank[0] {
			for r := range perRank {
				merged = append(merged, perRank[r][i])
			}
		}
		f, err := os.Create(filepath.Join(dir, "m.trace"))
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(f, merged); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := os.WriteFile(filepath.Join(dir, "m.desc"), []byte("m.trace\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		desc := filepath.Join(dir, "m.desc")

		text, err := LoadDescription(desc, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := materializeProvider(t, text)

		p, err := OpenDescriptionCached(desc, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got := materializeProvider(t, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("merged compile mismatch:\ngot  %+v\nwant %+v", got, want)
		}
	})

	t.Run("folded", func(t *testing.T) {
		dir := t.TempDir()
		// Make the trace foldable: repeat an iteration block.
		iterated := make([][]Action, len(perRank))
		for r := range perRank {
			for i := 0; i < 20; i++ {
				iterated[r] = append(iterated[r], perRank[r][1:len(perRank[r])-1]...)
			}
		}
		desc, err := WriteFoldedSet(dir, "f", iterated)
		if err != nil {
			t.Fatal(err)
		}
		// Text rendering rounds volumes (%.0f), so compare against what the
		// folded *text* expands to, which is what the compiler consumed.
		text, err := LoadDescription(desc, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := materializeProvider(t, text)
		if len(want[0]) != len(iterated[0]) {
			t.Fatalf("folded expansion has %d actions, want %d", len(want[0]), len(iterated[0]))
		}
		p, err := OpenDescriptionCached(desc, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got := materializeProvider(t, p); !reflect.DeepEqual(got, want) {
			t.Fatal("folded compile mismatch")
		}
	})
}

// drainTIB opens path and reads every rank to the end, returning the first
// error encountered.
func drainTIB(path string) error {
	p, err := OpenTIB(path)
	if err != nil {
		return err
	}
	defer p.Close()
	for r := 0; r < p.NumRanks(); r++ {
		st, err := p.Rank(r)
		if err != nil {
			return err
		}
		for {
			ok, err := st.Next(new(Action))
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
	}
	return nil
}

// The new vocabulary must survive the binary format: wait sets and vector
// collectives round-trip bit-for-bit and stamp the file as version 2.
func TestTIBV2RoundTripNewKinds(t *testing.T) {
	perRank := sampleTraceSetV2(3)
	path := filepath.Join(t.TempDir(), "v2.tib")
	if err := WriteTIBFile(path, perRank); err != nil {
		t.Fatal(err)
	}
	p, err := OpenTIB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Version() != 2 {
		t.Fatalf("Version = %d, want 2", p.Version())
	}
	if got := materializeProvider(t, p); !reflect.DeepEqual(got, perRank) {
		t.Fatalf("v2 round trip mismatch:\ngot  %+v\nwant %+v", got, perRank)
	}
}

// The committed v1 fixture must decode byte-for-byte to the same actions
// forever: v2 extended the format, readers must never reinterpret old
// files. Do NOT regenerate testdata/sample_v1.tib.
func TestTIBV1FixtureBitIdentical(t *testing.T) {
	p, err := OpenTIB(filepath.Join("testdata", "sample_v1.tib"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Version() != 1 {
		t.Fatalf("Version = %d, want 1", p.Version())
	}
	want := [][]Action{
		{
			{Rank: 0, Kind: Init, Peer: -1},
			{Rank: 0, Kind: Compute, Instructions: 956140, Peer: -1},
			{Rank: 0, Kind: Compute, Instructions: 1234.5, Peer: -1},
			{Rank: 0, Kind: Send, Bytes: 1240, Peer: 1},
			{Rank: 0, Kind: ISend, Bytes: 65536, Peer: 2},
			{Rank: 0, Kind: Wait, Peer: -1},
			{Rank: 0, Kind: Bcast, Bytes: 2048, Peer: -1, Root: 2},
			{Rank: 0, Kind: Reduce, Bytes: 64, Peer: -1},
			{Rank: 0, Kind: AllReduce, Bytes: 40, Peer: -1},
			{Rank: 0, Kind: Finalize, Peer: -1},
		},
		{
			{Rank: 1, Kind: Init, Peer: -1},
			{Rank: 1, Kind: Recv, Bytes: -1, Peer: 0},
			{Rank: 1, Kind: IRecv, Bytes: 512, Peer: 2},
			{Rank: 1, Kind: WaitAll, Peer: -1},
			{Rank: 1, Kind: Barrier, Peer: -1},
			{Rank: 1, Kind: Bcast, Bytes: 2048, Peer: -1, Root: 2},
			{Rank: 1, Kind: Reduce, Bytes: 64, Peer: -1},
			{Rank: 1, Kind: AllReduce, Bytes: 40, Peer: -1},
			{Rank: 1, Kind: Finalize, Peer: -1},
		},
		{
			{Rank: 2, Kind: Init, Peer: -1},
			{Rank: 2, Kind: Recv, Bytes: 0, Peer: 0},
			{Rank: 2, Kind: Send, Bytes: 512, Peer: 1},
			{Rank: 2, Kind: Gather, Bytes: 128, Peer: -1, Root: 1},
			{Rank: 2, Kind: AllToAll, Bytes: 4096, Peer: -1},
			{Rank: 2, Kind: AllGather, Bytes: 256, Peer: -1},
			{Rank: 2, Kind: Bcast, Bytes: 2048, Peer: -1, Root: 2},
			{Rank: 2, Kind: Reduce, Bytes: 64, Peer: -1},
			{Rank: 2, Kind: AllReduce, Bytes: 40, Peer: -1},
			{Rank: 2, Kind: Finalize, Peer: -1},
		},
	}
	if got := materializeProvider(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 fixture decode drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

// Every truncation and every single-bit flip of a .tib file must surface
// as a *TraceError — never a panic, never silently decoded: each file
// region is covered by a checksum.
func TestTIBCorruptionRobustness(t *testing.T) {
	tibCorruptionCheck(t, sampleTraceSet(2))
}

// The version-2 records (counts arrays, wait-set counts) get the same
// every-truncation/every-bitflip treatment as the v1 vocabulary.
func TestTIBV2CorruptionRobustness(t *testing.T) {
	tibCorruptionCheck(t, sampleTraceSetV2(2))
}

func tibCorruptionCheck(t *testing.T, perRank [][]Action) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.tib")
	if err := WriteTIBFile(path, perRank); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := drainTIB(path); err != nil {
		t.Fatalf("pristine file failed to read: %v", err)
	}

	check := func(t *testing.T, mutated []byte, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", what, r)
			}
		}()
		bad := filepath.Join(dir, "bad.tib")
		if err := os.WriteFile(bad, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		err := drainTIB(bad)
		if err == nil {
			t.Fatalf("%s: corruption went undetected", what)
		}
		var te *TraceError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v is not a *TraceError", what, err)
		}
	}

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			check(t, good[:n], "truncated to "+strconv.Itoa(n))
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < len(good); i++ {
			mutated := append([]byte(nil), good...)
			mutated[i] ^= 1 << uint(rng.Intn(8))
			check(t, mutated, "bit flipped at "+strconv.Itoa(i))
		}
	})

	t.Run("garbage", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			mutated := make([]byte, rng.Intn(2*len(good)))
			rng.Read(mutated)
			check(t, mutated, "random garbage")
		}
	})
}

// A section whose raw float64 volume is NaN passes every checksum, so it
// is Validate that must turn it into a *TraceError at decode.
func TestTIBRejectsNonFiniteVolume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nan.tib")
	a := Action{Rank: 0, Kind: Compute, Instructions: math.NaN(), Peer: -1}
	sec := tibSection{data: appendAction(nil, &a), count: 1}
	if err := writeTIB(path, [32]byte{}, []tibSection{sec}); err != nil {
		t.Fatal(err)
	}
	err := drainTIB(path)
	var te *TraceError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("err = %v, want a *TraceError naming the non-finite volume", err)
	}
}

// A non-TIB file must be rejected at open, and SniffTIB must classify by
// magic, not extension.
func TestOpenTIBRejectsTextTraces(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "fake.tib")
	if err := os.WriteFile(text, []byte("p0 compute 1000\np0 send p1 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTIB(text); err == nil {
		t.Fatal("OpenTIB accepted a text trace")
	}
	if SniffTIB(text) {
		t.Fatal("SniffTIB misclassified a text trace")
	}
	realPath := filepath.Join(dir, "real.bin")
	if err := WriteTIBFile(realPath, sampleTraceSet(2)); err != nil {
		t.Fatal(err)
	}
	if !SniffTIB(realPath) {
		t.Fatal("SniffTIB missed a compiled trace with a foreign extension")
	}
}

// Abandoned file streams must be closable (fd-leak fix): Close is
// idempotent and a closed stream refuses further reads.
func TestFileStreamClose(t *testing.T) {
	dir := t.TempDir()
	desc, err := WriteSet(dir, "x", sampleTraceSet(2))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := LoadDescription(desc, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fp.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Next(new(Action)); err != nil || !ok {
		t.Fatalf("first action: ok=%v err=%v", ok, err)
	}
	closer, ok := st.(interface{ Close() error })
	if !ok {
		t.Fatal("file-backed stream is not Close-capable")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Next(new(Action)); err == nil {
		t.Fatal("Next succeeded on a closed stream")
	}
}

// Concurrent Rank calls on one CompiledProvider must be safe — the batch
// runner replays scenarios sharing nothing but the cache file.
func TestCompiledProviderConcurrentRanks(t *testing.T) {
	perRank := sampleTraceSet(8)
	path := filepath.Join(t.TempDir(), "p.tib")
	if err := WriteTIBFile(path, perRank); err != nil {
		t.Fatal(err)
	}
	p, err := OpenTIB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			st, err := p.Rank(i % 8)
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for {
				ok, err := st.Next(new(Action))
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					break
				}
				n++
			}
			if n != len(perRank[i%8]) {
				errs <- errors.New("short read")
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 64; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
