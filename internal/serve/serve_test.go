package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/scenario"
	"tireplay/internal/sweep"
)

func flatSpec(hosts int) *platform.Spec {
	return &platform.Spec{
		Name: "test", Topology: "flat", Hosts: hosts, Speed: 1e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

// luSweep builds an LU grid over procs x the given iteration values.
// Sweeps with overlapping iters share scenario fingerprints point for
// point, which is what the dedup tests exercise.
func luSweep(name string, iters ...any) *sweep.Sweep {
	return &sweep.Sweep{
		Name: name,
		Base: scenario.Scenario{
			Platform: flatSpec(4),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 2, Iterations: 1},
		},
		NameFormat: "lu-{procs}p-i{iters}",
		Axes: []sweep.Axis{
			{Name: "procs", Values: []any{
				map[string]any{"workload.procs": 2, "platform.hosts": 2},
				map[string]any{"workload.procs": 4, "platform.hosts": 4},
			}, Labels: []string{"2", "4"}},
			{Name: "iters", Path: "workload.iterations", Values: iters},
		},
	}
}

// localBaseline replays the sweep in-process with sweep.Collect and
// returns fingerprint → (simulated time, actions).
func localBaseline(t *testing.T, sw *sweep.Sweep) map[string][2]float64 {
	t.Helper()
	results, err := sweep.Collect(context.Background(), sw, 0)
	if err != nil {
		t.Fatalf("local collect: %v", err)
	}
	base := make(map[string][2]float64)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("local point %s failed: %v", r.Point.Scenario.Name, r.Err)
		}
		base[r.Point.Fingerprint] = [2]float64{r.Replay.SimulatedTime, float64(r.Replay.Actions)}
	}
	return base
}

// checkRecords asserts every streamed record matches the local baseline
// bit for bit on (fingerprint → simulated time, actions).
func checkRecords(t *testing.T, recs []*sweep.Record, base map[string][2]float64, wantLen int) {
	t.Helper()
	if len(recs) != wantLen {
		t.Fatalf("streamed %d records, want %d", len(recs), wantLen)
	}
	for _, rec := range recs {
		if rec.Err != "" {
			t.Fatalf("point %s failed: %s", rec.Name, rec.Err)
		}
		want, ok := base[rec.Fingerprint]
		if !ok {
			t.Fatalf("point %s has fingerprint %s not in the local baseline", rec.Name, rec.Fingerprint)
		}
		if rec.Replay.SimulatedTime != want[0] || float64(rec.Replay.Actions) != want[1] {
			t.Errorf("point %s: served (%v s, %v actions) != local (%v s, %v actions)",
				rec.Name, rec.Replay.SimulatedTime, rec.Replay.Actions, want[0], want[1])
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == "" {
		cfg.Store = t.TempDir()
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestEmbeddedWorkers: the server's own pool drains a sweep and the
// streamed records are bit-identical to a local sweep.Collect;
// resubmitting serves everything from the store.
func TestEmbeddedWorkers(t *testing.T) {
	ctx := context.Background()
	sw := luSweep("embedded", 1, 2)
	base := localBaseline(t, sw)

	s, ts := newTestServer(t, Config{Workers: 2})
	c := NewClient(ts.URL)
	sub, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Points != 4 || sub.Cached != 0 {
		t.Fatalf("submit accounting = %+v, want 4 points, 0 cached", sub)
	}
	recs, err := c.Collect(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, base, 4)

	st := s.Stats()
	if st.Replayed != 4 {
		t.Fatalf("replayed %d points, want 4", st.Replayed)
	}

	// Resubmit: every point comes from the store, nothing replays again.
	sub2, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Cached != 4 || sub2.Pending != 0 {
		t.Fatalf("resubmit accounting = %+v, want 4 cached, 0 pending", sub2)
	}
	recs2, err := c.Collect(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs2, base, 4)
	for _, rec := range recs2 {
		if !rec.Cached {
			t.Errorf("resubmitted point %s not marked cached", rec.Name)
		}
	}
	if st := s.Stats(); st.Replayed != 4 {
		t.Fatalf("resubmit replayed %d extra points", st.Replayed-4)
	}
}

// TestStoreSurvivesRestart: a fresh server over the same store answers
// from it (the warm-answer-machine property).
func TestStoreSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sw := luSweep("restart", 1)

	s1, ts1 := newTestServer(t, Config{Store: dir, Workers: 1})
	c1 := NewClient(ts1.URL)
	sub, err := c1.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Collect(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Store: dir, Workers: -1}) // no workers: cache only
	c2 := NewClient(ts2.URL)
	if st := s2.Stats(); st.StoreWarm != 2 {
		t.Fatalf("restarted server found %d warm records, want 2", st.StoreWarm)
	}
	sub2, err := c2.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Cached != 2 {
		t.Fatalf("restarted submit accounting = %+v, want 2 cached", sub2)
	}
	recs, err := c2.Collect(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

// TestDedupAcrossClientsAndWorkers is the acceptance end-to-end: two
// concurrent clients submit overlapping sweeps, two external worker
// processes (no embedded pool) drain the union, every distinct
// fingerprint replays exactly once, and both streams are bit-identical
// to a single-process sweep.Collect of the union grid.
func TestDedupAcrossClientsAndWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	swA := luSweep("client-a", 1, 2, 3)
	swB := luSweep("client-b", 2, 3, 4)
	union := luSweep("union", 1, 2, 3, 4)
	base := localBaseline(t, union)
	if len(base) != 8 {
		t.Fatalf("union grid has %d distinct fingerprints, want 8", len(base))
	}

	s, ts := newTestServer(t, Config{Workers: -1})

	// Two external workers, work-stealing from the shared queue.
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			Work(ctx, ts.URL, WorkerOptions{Name: "w", Poll: 50 * time.Millisecond, Logf: t.Logf})
		}(i)
	}
	defer workers.Wait()
	defer cancel()

	// Two clients submit and stream concurrently.
	type out struct {
		recs []*sweep.Record
		err  error
	}
	run := func(sw *sweep.Sweep, ch chan<- out) {
		c := NewClient(ts.URL)
		sub, err := c.Submit(ctx, sw)
		if err != nil {
			ch <- out{err: err}
			return
		}
		recs, err := c.Collect(ctx, sub.ID)
		ch <- out{recs: recs, err: err}
	}
	chA, chB := make(chan out, 1), make(chan out, 1)
	go run(swA, chA)
	go run(swB, chB)
	outA, outB := <-chA, <-chB
	if outA.err != nil {
		t.Fatalf("client A: %v", outA.err)
	}
	if outB.err != nil {
		t.Fatalf("client B: %v", outB.err)
	}
	checkRecords(t, outA.recs, base, 6)
	checkRecords(t, outB.recs, base, 6)

	st := s.Stats()
	if st.Replayed != 8 {
		t.Fatalf("replayed %d points for 8 distinct fingerprints (stats %+v)", st.Replayed, st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d points failed (stats %+v)", st.Failed, st)
	}
	// The 4 shared fingerprints were answered without replaying: merged
	// onto in-flight work or served from the store, depending on timing.
	if st.Merged+st.CacheHits != 4 {
		t.Fatalf("merged %d + cache hits %d, want 4 deduplicated points (stats %+v)",
			st.Merged, st.CacheHits, st)
	}
}

// TestLeaseExpiry: a worker that takes a lease and dies has its point
// reclaimed by the TTL janitor and re-leased, and the sweep still
// completes bit-identical to a local sweep.Collect.
func TestLeaseExpiry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sw := luSweep("expiry", 1, 2)
	base := localBaseline(t, sw)

	s, ts := newTestServer(t, Config{Workers: -1, LeaseTTL: 80 * time.Millisecond})
	c := NewClient(ts.URL)
	sub, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker leases a point and is never heard from again.
	dead, err := c.Lease(ctx, "doomed", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dead == nil {
		t.Fatal("no lease for the doomed worker")
	}

	// A healthy worker drains the sweep, including the reclaimed point.
	var worker sync.WaitGroup
	worker.Add(1)
	go func() {
		defer worker.Done()
		Work(ctx, ts.URL, WorkerOptions{Name: "healthy", Poll: 30 * time.Millisecond, Logf: t.Logf})
	}()
	defer worker.Wait()
	defer cancel()

	recs, err := c.Collect(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, base, 4)

	st := s.Stats()
	if st.ExpiredLeases < 1 {
		t.Fatalf("no lease expired (stats %+v)", st)
	}
	// The expired lease was requeued with budget left: that is a retry.
	if st.Retried < 1 {
		t.Fatalf("an expired lease was requeued but not counted as retried (stats %+v)", st)
	}
	var found bool
	for _, rec := range recs {
		if rec.Fingerprint == dead.Fingerprint {
			found = true
		}
	}
	if !found {
		t.Fatalf("the dead worker's point %s never completed", dead.Fingerprint)
	}
}

// TestLateResultIdempotent: a result posted after the lease expired (and
// after another worker already completed the point) is accepted and
// changes nothing.
func TestLateResultIdempotent(t *testing.T) {
	ctx := context.Background()
	// A single-point sweep (no axes): the slow worker is the only one
	// ever leased, so both posts target the same completed point.
	sw := &sweep.Sweep{
		Name: "late",
		Base: scenario.Scenario{
			Platform: flatSpec(2),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 2, Iterations: 1},
		},
	}
	s, ts := newTestServer(t, Config{Workers: -1, LeaseTTL: 60 * time.Millisecond})
	c := NewClient(ts.URL)
	sub, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}

	l, err := c.Lease(ctx, "slow", time.Second)
	if err != nil || l == nil {
		t.Fatalf("lease: %v %v", l, err)
	}
	// Let it expire, have someone else finish the point...
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.ExpiredLeases >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res := runLease(ctx, c, l)
	if res.Err != "" {
		t.Fatalf("slow replay failed: %s", res.Err)
	}
	if err := c.PushResult(ctx, res); err != nil {
		t.Fatalf("first (late) post rejected: %v", err)
	}
	// ...and post again: idempotent.
	if err := c.PushResult(ctx, res); err != nil {
		t.Fatalf("duplicate post rejected: %v", err)
	}
	if st := s.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed count %d after duplicate posts, want 1", st.Replayed)
	}
	if _, err := c.Collect(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPErrors: strict spec decoding and unknown IDs surface as
// client-readable HTTP errors.
func TestHTTPErrors(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestServer(t, Config{Workers: -1})
	c := NewClient(ts.URL)

	// Typoed axis field → 400 naming the field (strict decoder).
	bad := &sweep.Sweep{
		Base: scenario.Scenario{
			Platform: flatSpec(2),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 2},
		},
		Axes: []sweep.Axis{{Name: "procs", Path: "workload.procz", Values: []any{2}}},
	}
	if _, err := c.Submit(ctx, bad); err == nil || !strings.Contains(err.Error(), "procz") {
		t.Fatalf("typoed axis path error = %v, want mention of procz", err)
	}

	if _, err := c.Status(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Fatalf("unknown sweep status error = %v", err)
	}
	if _, err := c.Collect(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Fatalf("unknown sweep stream error = %v", err)
	}
	if err := c.Heartbeat(ctx, "nope"); err == nil {
		t.Fatal("heartbeat on unknown lease succeeded")
	}
	if err := c.PushResult(ctx, &WorkerResult{Fingerprint: "nope", Err: "x"}); err == nil {
		t.Fatal("result for unknown fingerprint accepted")
	}
}

// TestStatus: progress accounting over a sweep's lifetime.
func TestStatus(t *testing.T) {
	ctx := context.Background()
	sw := luSweep("status", 1)
	_, ts := newTestServer(t, Config{Workers: 1})
	c := NewClient(ts.URL)
	sub, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 2 || st.Done != 2 || st.Failed != 0 {
		t.Fatalf("status = %+v, want 2/2 done", st)
	}
}
