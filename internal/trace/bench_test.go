package trace

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// benchActions is the 4000-action trace both the text-parsing and the
// TIB-decoding throughput benchmarks consume, so their ns/op compare
// directly (same actions per iteration).
func benchActions() []Action {
	actions := make([]Action, 0, 4000)
	for i := 0; i < 1000; i++ {
		actions = append(actions,
			Action{Rank: 0, Kind: Compute, Instructions: 956140, Peer: -1},
			Action{Rank: 0, Kind: Send, Peer: 1, Bytes: 1240},
			Action{Rank: 0, Kind: IRecv, Peer: 2, Bytes: 880},
			Action{Rank: 0, Kind: Wait, Peer: -1},
		)
	}
	return actions
}

// benchWorld is the trace set of the TIB benchmarks: benchActions as rank 0
// of a three-rank world, so that its peers p1 and p2 exist, as compiling
// checks.
func benchWorld() [][]Action { return [][]Action{benchActions(), nil, nil} }

func BenchmarkParseLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ParseLine("p0 send p1 1240"); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseComputeLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ParseLine("p0 compute 956140"); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderThroughput(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString("p0 compute 956140\np0 send p1 1240\np0 irecv p2 880\np0 wait\n")
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	var a Action
	for i := 0; i < b.N; i++ {
		rd := NewReader(strings.NewReader(src))
		for {
			ok, err := rd.Next(&a)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// vectorTrace is n alltoallv lines of 64 volumes each, rank 0 of a world
// of 64.
func vectorTrace(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("p0 alltoallv")
		for k := 0; k < 64; k++ {
			fmt.Fprintf(&sb, " %d", 1024*((i+k)%7))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BenchmarkReaderVector reads 1000 alltoallv lines of 64 volumes into one
// record: the reader decodes every vector into its one scratch vector, so
// allocs/op does not grow with the line count.
func BenchmarkReaderVector(b *testing.B) {
	src := vectorTrace(1000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	var a Action
	for i := 0; i < b.N; i++ {
		rd := NewReader(strings.NewReader(src))
		rd.SetWorld(64)
		n := 0
		for {
			ok, err := rd.Next(&a)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 1000 {
			b.Fatalf("read %d actions, want 1000", n)
		}
	}
}

// BenchmarkTIBDecode measures compiled-trace ingestion on the same trace
// as BenchmarkReaderThroughput: one iteration reads the full 4000-action
// rank section (positioned read + checksum + varint decode), so the ns/op
// ratio against the text benchmark is the ingestion speedup.
func BenchmarkTIBDecode(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.tib")
	if err := WriteTIBFile(path, benchWorld()); err != nil {
		b.Fatal(err)
	}
	p, err := OpenTIB(path)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.SetBytes(int64(p.index[0].length))
	b.ReportAllocs()
	b.ResetTimer()
	var a Action
	for i := 0; i < b.N; i++ {
		st, err := p.Rank(0)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ok, err := st.Next(&a)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 4000 {
			b.Fatalf("decoded %d actions, want 4000", n)
		}
	}
}

// BenchmarkTIBCompile measures the one-time compile cost the cache
// amortizes away.
func BenchmarkTIBCompile(b *testing.B) {
	world := benchWorld()
	path := filepath.Join(b.TempDir(), "bench.tib")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTIBFile(path, world); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	actions := benchActions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, actions); err != nil {
			b.Fatal(err)
		}
	}
}
