package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tireplay/internal/core"
)

// Record is the serialized form of one sweep result — the unit the result
// store persists and the JSONL sink emits, so stored results and streamed
// result files round-trip through the same schema.
type Record struct {
	// Sweep is the owning sweep's name.
	Sweep string `json:"sweep,omitempty"`
	// Index is the point's position in the expanded grid.
	Index int `json:"index"`
	// Name is the expanded scenario's display name.
	Name string `json:"name,omitempty"`
	// Fingerprint keys the record in the result store.
	Fingerprint string `json:"fingerprint"`
	// Seq is the record's 1-based position in its sweep's completion
	// order. Only the sweep service sets it (streams resume with
	// ?after=N); locally-run and stored records leave it zero.
	Seq int64 `json:"seq,omitempty"`
	// Values and Labels record the point's axis values and display labels.
	Values map[string]any    `json:"values,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Cached reports the result was served from the store, not replayed.
	Cached bool `json:"cached,omitempty"`
	// Replay is the full replay outcome, nil on failure. JSON encoding of
	// float64 is shortest-round-trip, so a stored result reloads
	// bit-identical to the fresh replay.
	Replay *core.Result `json:"replay,omitempty"`
	// Err is the point's failure message, "" on success.
	Err string `json:"error,omitempty"`
}

// Store is the persistent on-disk result store: one JSON Record per
// completed point, keyed by scenario fingerprint, written atomically
// (unique temp file + fsync + rename) so an interrupted sweep never
// leaves a torn record. It is safe for concurrent use — including
// several Stores in several processes sharing one directory: temp names
// are unique per writer, and because records are content-addressed by
// fingerprint, concurrent writers of the same fingerprint race benignly
// (last rename wins, all candidates encode the same scenario).
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a result store directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(fingerprint string) string {
	return filepath.Join(st.dir, fingerprint+".json")
}

// Get loads the record stored under a fingerprint; a miss returns
// (nil, nil).
func (st *Store) Get(fingerprint string) (*Record, error) {
	data, err := os.ReadFile(st.path(fingerprint))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: reading stored result: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("sweep: stored result %s: %w", fingerprint, err)
	}
	if rec.Fingerprint != fingerprint {
		return nil, fmt.Errorf("sweep: stored result %s carries fingerprint %s", fingerprint, rec.Fingerprint)
	}
	return &rec, nil
}

// Put persists a record under its fingerprint, atomically replacing any
// previous result for the same scenario. The temp file is fsynced before
// the rename, so a record that Put returned success for survives a crash
// (a torn write can at worst lose the rename, never corrupt the record).
func (st *Store) Put(rec *Record) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("sweep: record has no fingerprint")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encoding result: %w", err)
	}
	// os.CreateTemp picks a name unique across processes, so two writers
	// of the same fingerprint never clobber each other's temp file; the
	// final rename is atomic and last-write-wins.
	tmp, err := os.CreateTemp(st.dir, rec.Fingerprint+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: writing result: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing result: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing result: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing result: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.path(rec.Fingerprint)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing result: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// some filesystems refuse it, and the record data is already safe.
	if d, err := os.Open(st.dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	return nil
}

// List iterates the fingerprints currently stored, in sorted order. A
// directory read failure is yielded once as ("", err).
func (st *Store) List() iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		entries, err := os.ReadDir(st.dir)
		if err != nil {
			yield("", fmt.Errorf("sweep: listing store: %w", err))
			return
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
				names = append(names, strings.TrimSuffix(e.Name(), ".json"))
			}
		}
		sort.Strings(names)
		for _, fp := range names {
			if !yield(fp, nil) {
				return
			}
		}
	}
}

// Len counts the records currently stored.
func (st *Store) Len() (int, error) {
	n := 0
	for _, err := range st.List() {
		if err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// ReadRecords decodes a JSONL stream of Records (the JSONL sink's output).
func ReadRecords(r io.Reader) ([]*Record, error) {
	dec := json.NewDecoder(r)
	var out []*Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("sweep: decoding results: %w", err)
		}
		out = append(out, &rec)
	}
}
