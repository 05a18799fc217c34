package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// The sweep journal is the server's durability story: an append-only log
// of submitted sweeps and per-point completion markers, kept next to the
// result store. The store alone already makes successful replays durable,
// but it cannot say which sweeps were open, in what order their results
// were emitted (the sequence numbers resumable streams depend on), or how
// failed points ended — the journal records exactly that, so a restarted
// server rebuilds every open sweep with the same IDs and the same record
// sequence a client saw before the crash.
//
// The format is deliberately dumb: an 8-byte magic header, then one frame
// per entry — uint32 payload length, uint32 IEEE CRC-32 of the payload,
// JSON payload. Appends are fsynced. On open the file is scanned frame by
// frame; the first short or CRC-failing frame marks a torn tail (a crash
// mid-append), everything before it is replayed, and the file is
// truncated back to the last good frame so appends continue from a clean
// boundary. A torn tail can therefore lose at most the single entry whose
// append never returned — never corrupt earlier entries, and never an
// entry a client was already shown (markers are journaled before streams
// are notified).

// journalMagic versions the file; bump it on incompatible entry changes.
var journalMagic = [8]byte{'T', 'I', 'R', 'E', 'P', 'J', 'L', '1'}

// journalEntry is one journal record. Kind selects which fields matter:
//
//	"sweep": a submission — ID, Name, Spec (the canonical sweep JSON)
//	"mark":  one emitted result — Sweep (owning ID), Index (grid index),
//	         Err (terminal failure message, "" for success), Cached
//
// A sweep's marks, in journal order, are its result sequence: the i-th
// mark for a sweep is the record with sequence number i+1.
type journalEntry struct {
	Kind   string          `json:"kind"`
	ID     string          `json:"id,omitempty"`
	Name   string          `json:"name,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Sweep  string          `json:"sweep,omitempty"`
	Index  int             `json:"index,omitempty"`
	Err    string          `json:"err,omitempty"`
	Cached bool            `json:"cached,omitempty"`
}

const (
	journalKindSweep = "sweep"
	journalKindMark  = "mark"
)

// journal is the open append handle. Appends are serialized and fsynced;
// concurrent appenders see a total order matching the file.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// openJournal opens (creating if needed) the journal at path, replays the
// entries already in it, truncates any torn tail, and returns the handle
// positioned for appending. A corrupt header (wrong magic) is an error —
// the file is not a journal and is left untouched.
func openJournal(path string) (*journal, []journalEntry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	entries, good, err := replayJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		// Torn tail from a crash mid-append: cut back to the last whole
		// frame so the next append starts on a clean boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: seeking journal: %w", err)
	}
	return &journal{f: f}, entries, nil
}

// replayJournal scans f from the start and returns the decodable entries
// plus the offset just past the last good frame. An empty file gets its
// header written here. Torn or CRC-failing tails end the scan silently —
// that is the crash-recovery contract, not an error.
func replayJournal(f *os.File) ([]journalEntry, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	if fi.Size() == 0 {
		if _, err := f.Write(journalMagic[:]); err != nil {
			return nil, 0, fmt.Errorf("serve: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("serve: writing journal header: %w", err)
		}
		return nil, int64(len(journalMagic)), nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != journalMagic {
		return nil, 0, fmt.Errorf("serve: %s is not a sweep journal (bad magic)", f.Name())
	}
	var entries []journalEntry
	good := int64(len(journalMagic))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // clean EOF or torn length/CRC header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > 1<<26 || int64(length) > fi.Size()-good-8 {
			break // implausible or torn frame: treat as tail corruption
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or torn overwrite: stop at the last good frame
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			break // CRC passed but payload is not ours; refuse to guess
		}
		entries = append(entries, e)
		good += 8 + int64(length)
	}
	return entries, good, nil
}

// append frames, writes, and fsyncs one entry. Appending to a closed
// journal is a no-op returning an error the caller may log.
func (j *journal) append(e *journalEntry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("serve: encoding journal entry: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("serve: journal closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("serve: appending journal entry: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
