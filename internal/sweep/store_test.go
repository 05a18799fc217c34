package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"tireplay/internal/core"
)

// fakeFingerprint derives a stable fake fingerprint for test records.
func fakeFingerprint(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("store-test-%d", i)))
	return hex.EncodeToString(sum[:])
}

// fakeRecord builds the canonical record every writer of fingerprint i
// produces — content-addressed, so concurrent writers race benignly.
func fakeRecord(i int) *Record {
	return &Record{
		Fingerprint: fakeFingerprint(i),
		Replay:      &core.Result{SimulatedTime: float64(i) * 1.25, Actions: int64(i)},
	}
}

// TestStoreConcurrentAccess hammers one directory through two Store
// handles (simulating two processes sharing it, as the sweep service
// does) with overlapping Put/Get of the same fingerprints. Run under
// -race; asserts no lost, torn, or cross-keyed records.
func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir) // second handle on the same directory
	if err != nil {
		t.Fatal(err)
	}

	const fps = 8
	const goroutines = 16
	const rounds = 40

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := st1
			if g%2 == 1 {
				st = st2
			}
			for r := 0; r < rounds; r++ {
				i := (g + r) % fps
				if (g+r)%3 == 0 {
					// Reader: a record is either absent or exactly right.
					rec, err := st.Get(fakeFingerprint(i))
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: get %d: %w", g, i, err)
						return
					}
					if rec != nil && (rec.Replay == nil || rec.Replay.SimulatedTime != float64(i)*1.25) {
						errc <- fmt.Errorf("goroutine %d: get %d returned corrupt record %+v", g, i, rec)
						return
					}
				} else {
					if err := st.Put(fakeRecord(i)); err != nil {
						errc <- fmt.Errorf("goroutine %d: put %d: %w", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every fingerprint written at least once must be present and intact.
	n, err := st1.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != fps {
		t.Fatalf("store holds %d records, want %d", n, fps)
	}
	seen := 0
	for fp, err := range st2.List() {
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st2.Get(fp)
		if err != nil || rec == nil {
			t.Fatalf("listed record %s: %v, %v", fp, rec, err)
		}
		seen++
		var i int
		for j := 0; j < fps; j++ {
			if fakeFingerprint(j) == rec.Fingerprint {
				i = j
			}
		}
		if rec.Replay == nil || rec.Replay.SimulatedTime != float64(i)*1.25 || rec.Replay.Actions != int64(i) {
			t.Errorf("listed record %s is corrupt: %+v", rec.Fingerprint, rec.Replay)
		}
	}
	if seen != fps {
		t.Fatalf("list saw %d records, want %d", seen, fps)
	}

	// No temp-file debris: every writer either renamed or removed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestStoreListWalk covers enumeration: sorted order, a corrupt record
// reported by Get without hiding its neighbours, early break.
func TestStoreListWalk(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Empty store: no yields, Len 0.
	for range st.List() {
		t.Fatal("List on empty store yielded")
	}
	if n, _ := st.Len(); n != 0 {
		t.Fatalf("empty Len = %d", n)
	}

	var want []string
	for i := 0; i < 5; i++ {
		if err := st.Put(fakeRecord(i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fakeFingerprint(i))
	}
	sort.Strings(want)

	var got []string
	for fp, err := range st.List() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fp)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}

	// A corrupt record is listed and fails to load; the rest still load.
	if err := os.WriteFile(filepath.Join(dir, fakeFingerprint(99)+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodRecords, errs := 0, 0
	for fp, err := range st.List() {
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st.Get(fp)
		if err != nil {
			errs++
			continue
		}
		if rec == nil || rec.Replay == nil {
			t.Errorf("listed record %s has no replay: %+v", fp, rec)
			continue
		}
		goodRecords++
	}
	if goodRecords != 5 || errs != 1 {
		t.Fatalf("loading a corrupt store: %d good, %d errors; want 5 and 1", goodRecords, errs)
	}

	// Early break stops the iteration cleanly.
	count := 0
	for _, err := range st.List() {
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count == 2 {
			break
		}
	}
	if count != 2 {
		t.Fatalf("broke after %d fingerprints, want 2", count)
	}

	// A record stored under the wrong name is an integrity error.
	if err := os.Rename(filepath.Join(dir, fakeFingerprint(0)+".json"),
		filepath.Join(dir, fakeFingerprint(42)+".json")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(fakeFingerprint(42)); err == nil {
		t.Fatal("cross-keyed record not detected")
	}
}
