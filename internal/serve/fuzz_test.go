package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// journalFrame frames one payload as the journal does.
func journalFrame(payload []byte) []byte {
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// journalPrefix is the oracle of replayJournal: it walks the frames that
// follow the magic in data and returns the entries of the longest prefix
// of whole, CRC-valid frames that decode, and that prefix's length.
func journalPrefix(data []byte) ([]journalEntry, int) {
	var entries []journalEntry
	good := len(journalMagic)
	for rest := data[good:]; len(rest) >= 8; {
		length := int(binary.LittleEndian.Uint32(rest[0:4]))
		if length == 0 || length > 1<<26 || length > len(rest)-8 {
			break
		}
		payload := rest[8 : 8+length]
		var e journalEntry
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) || json.Unmarshal(payload, &e) != nil {
			break
		}
		entries = append(entries, e)
		good += 8 + length
		rest = rest[8+length:]
	}
	return entries, good
}

// FuzzJournal opens a journal whose bytes after the magic are fuzzed. The
// property: openJournal never panics; it returns exactly the entries of the
// longest prefix of whole, CRC-valid, decodable frames and truncates the
// file to that prefix; reopening changes nothing; and an entry appended
// after it reads back at the end.
func FuzzJournal(f *testing.F) {
	var whole []byte
	for _, e := range []*journalEntry{
		{Kind: journalKindSweep, ID: "s1", Name: "grid", Spec: []byte(`{"name":"grid"}`)},
		markEntry("s1", 0),
		{Kind: journalKindMark, Sweep: "s1", Index: 1, Err: "boom", Cached: true},
	} {
		payload, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		whole = append(whole, journalFrame(payload)...)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x40
	var huge [8]byte // a frame header claiming 64 MiB, with no payload
	binary.LittleEndian.PutUint32(huge[0:4], 1<<26)
	f.Add([]byte{})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(flipped)
	f.Add(huge[:])
	f.Add(journalFrame([]byte("not json")))

	path := filepath.Join(f.TempDir(), "journal.wal")
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(journalMagic[:len(journalMagic):len(journalMagic)], tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := journalPrefix(data)
		open := func() []journalEntry {
			j, entries, err := openJournal(path)
			if err != nil {
				t.Fatalf("openJournal: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			return entries
		}
		check := func(got []journalEntry) {
			t.Helper()
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("replayed %+v, want %+v", got, want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, data[:good]) {
				t.Fatalf("journal holds %d bytes, want its %d-byte good prefix", len(after), good)
			}
		}
		check(open())
		check(open())

		mark := markEntry("fuzz", 7)
		j, _, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.append(mark); err != nil {
			t.Fatal(err)
		}
		j.Close()
		got := open()
		if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(want)], *mark) ||
			(len(want) > 0 && !reflect.DeepEqual(got[:len(want)], want)) {
			t.Fatalf("after appending %+v: replayed %+v", *mark, got)
		}
	})
}

// TestJournalFrameLengthBoundedByFile: a frame header claiming more bytes
// than the file holds ends the scan before its payload is allocated.
func TestJournalFrameLengthBoundedByFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<26)
	if err := os.WriteFile(path, append(journalMagic[:len(journalMagic):len(journalMagic)], hdr[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, entries := mustOpenJournal(t, path)
	runtime.ReadMemStats(&after)
	j.Close()
	if len(entries) != 0 {
		t.Fatalf("replayed %d entries from a frame with no payload", len(entries))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<24 {
		t.Fatalf("opening a 16-byte journal allocated %d bytes", alloc)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(journalMagic)) {
		t.Fatalf("journal holds %d bytes, want only its magic", fi.Size())
	}
}
