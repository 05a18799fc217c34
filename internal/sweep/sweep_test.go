package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/runner"
	"tireplay/internal/scenario"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// gridSpec is the acceptance-criteria sweep: {lu, cg} x {2,4,8,16} procs x
// {smpi, msg} x {1,2,3,4} iterations = 64 points.
func gridSpec() *Sweep {
	return &Sweep{
		Name: "test-grid",
		Base: scenario.Scenario{
			Platform: flatSpec(16),
			Workload: &scenario.WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 2, Iterations: 1},
		},
		NameFormat: "{bench}-{procs}p-{backend}-i{iters}",
		Axes: []Axis{
			{Name: "bench", Path: "workload.benchmark", Values: []any{"lu", "cg"}},
			{Name: "procs", Values: []any{
				map[string]any{"workload.procs": 2, "platform.hosts": 2},
				map[string]any{"workload.procs": 4, "platform.hosts": 4},
				map[string]any{"workload.procs": 8, "platform.hosts": 8},
				map[string]any{"workload.procs": 16, "platform.hosts": 16},
			}, Labels: []string{"2", "4", "8", "16"}},
			{Name: "backend", Values: []any{"smpi", "msg"}},
			{Name: "iters", Path: "workload.iterations", Values: []any{1, 2, 3, 4}},
		},
	}
}

// Spec literals shared by the decoding tests and FuzzSweepSpec's seeds:
// a 2x2 grid written as a spec file, and specs misspelling a sweep field
// and a base-scenario knob.
const (
	fileSweepJSON = `{
	  "name": "file-sweep",
	  "base": {
	    "platform": {"name": "c", "topology": "flat", "hosts": 4, "speed": 1e9,
	      "link_bandwidth": 1.25e8, "link_latency": 2e-5,
	      "backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6},
	    "workload": {"benchmark": "ep", "class": "S", "procs": 4}
	  },
	  "axes": [
	    {"name": "procs", "values": [
	      {"workload.procs": 2, "platform.hosts": 2},
	      {"workload.procs": 4, "platform.hosts": 4}], "labels": ["2", "4"]},
	    {"name": "backend", "values": ["smpi", "msg"]}
	  ]
	}`
	typoedSpecJSON = `{"nme": "x"}`
	typoedBaseJSON = `{"base": {"platform": {"topology": "flat", "hosts": 2, "speed": 1e9,
	  "link_bandwidth": 1.25e8, "link_latency": 2e-5,
	  "backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6},
	  "workload": {"benchmark": "ep", "class": "S", "prcs": 2}}}`
)

func flatSpec(hosts int) *platform.Spec {
	return &platform.Spec{
		Name: "test", Topology: "flat", Hosts: hosts, Speed: 1e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

func TestExpandDeterministic(t *testing.T) {
	sw := gridSpec()
	a, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 64 {
		t.Fatalf("grid has %d points, want 64", len(a))
	}
	// Same spec, expanded again: same order, names, fingerprints.
	b, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// And once more after a JSON round trip of the spec itself.
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sw); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rt.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for _, other := range [][]Point{b, c} {
			if a[i].Scenario.Name != other[i].Scenario.Name {
				t.Fatalf("point %d name differs: %q vs %q", i, a[i].Scenario.Name, other[i].Scenario.Name)
			}
			if a[i].Fingerprint != other[i].Fingerprint {
				t.Fatalf("point %d fingerprint differs", i)
			}
		}
		if a[i].Index != i {
			t.Fatalf("point %d has index %d", i, a[i].Index)
		}
	}
	// Fingerprints identify distinct work.
	seen := make(map[string]string)
	for _, pt := range a {
		if prev, dup := seen[pt.Fingerprint]; dup {
			t.Fatalf("points %q and %q share a fingerprint", prev, pt.Scenario.Name)
		}
		seen[pt.Fingerprint] = pt.Scenario.Name
	}
}

func TestExpandNamesAndLastAxisFastest(t *testing.T) {
	pts, err := gridSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Scenario.Name != "lu-2p-smpi-i1" {
		t.Fatalf("first point named %q", pts[0].Scenario.Name)
	}
	if pts[1].Scenario.Name != "lu-2p-smpi-i2" {
		t.Fatalf("second point named %q (last axis must vary fastest)", pts[1].Scenario.Name)
	}
	if last := pts[len(pts)-1].Scenario.Name; last != "cg-16p-msg-i4" {
		t.Fatalf("last point named %q", last)
	}
}

func TestSkipConstraints(t *testing.T) {
	sw := gridSpec()
	sw.Skip = []map[string]string{{"bench": "cg", "backend": "msg"}}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 64-16 {
		t.Fatalf("grid has %d points after skip, want 48", len(pts))
	}
	for _, pt := range pts {
		if pt.Labels["bench"] == "cg" && pt.Labels["backend"] == "msg" {
			t.Fatalf("skipped combination survived: %s", pt.Scenario.Name)
		}
	}
	// Indexes stay dense and ordered.
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
	}
}

func TestFingerprintIgnoresDisplayName(t *testing.T) {
	a := gridSpec()
	b := gridSpec()
	b.NameFormat = "renamed {bench} {procs} {backend} {iters}"
	pa, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i].Fingerprint != pb[i].Fingerprint {
			t.Fatalf("point %d: renaming changed the fingerprint", i)
		}
		if pa[i].Scenario.Name == pb[i].Scenario.Name {
			t.Fatalf("point %d: names did not change", i)
		}
	}
}

func TestStrictDecodingNamesOffendingField(t *testing.T) {
	// A typoed axis path must fail loudly, naming the field.
	sw := gridSpec()
	sw.Axes[3].Path = "workload.iterationz"
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "iterationz") {
		t.Fatalf("typoed axis path error %v does not name the field", err)
	}

	// A typoed knob in a sweep spec file must fail loudly too.
	if _, err := ReadSpec(strings.NewReader(typoedSpecJSON)); err == nil || !strings.Contains(err.Error(), "nme") {
		t.Fatalf("typoed spec field error %v does not name the field", err)
	}
	if _, err := ReadSpec(strings.NewReader(typoedBaseJSON)); err == nil || !strings.Contains(err.Error(), "prcs") {
		t.Fatalf("typoed base knob error %v does not name the field", err)
	}
}

func TestValidateRejectsBadSweeps(t *testing.T) {
	base := scenario.Scenario{
		Platform: flatSpec(2),
		Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 2},
	}
	cases := []struct {
		name string
		mut  func(*Sweep)
	}{
		{"unnamed axis", func(s *Sweep) { s.Axes = []Axis{{Values: []any{1}}} }},
		{"duplicate axis", func(s *Sweep) {
			s.Axes = []Axis{{Name: "a", Values: []any{1}}, {Name: "a", Values: []any{2}}}
		}},
		{"empty values", func(s *Sweep) { s.Axes = []Axis{{Name: "a"}} }},
		{"label mismatch", func(s *Sweep) {
			s.Axes = []Axis{{Name: "a", Values: []any{1, 2}, Labels: []string{"one"}}}
		}},
		{"bad resume", func(s *Sweep) { s.Resume = "maybe" }},
		{"unknown skip axis", func(s *Sweep) { s.Skip = []map[string]string{{"nope": "1"}} }},
		{"unknown placeholder", func(s *Sweep) { s.NameFormat = "{nope}" }},
		{"programmatic base", func(s *Sweep) { s.Base.Provider = nil; s.Base.Plat = nil; s.Base.Network = fakeModel{} }},
	}
	for _, tc := range cases {
		sw := &Sweep{Base: base}
		tc.mut(sw)
		if err := sw.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the sweep", tc.name)
		}
	}
}

func TestRunStreamsToJSONLSinkBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("64-point grid in -short mode")
	}
	sw := gridSpec()
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Fresh reference batch straight through the runner.
	ref := make([]*scenario.Scenario, len(pts))
	for i, pt := range pts {
		ref[i] = pt.Scenario
	}
	want, err := runner.Run(context.Background(), ref, runner.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	results, err := Collect(context.Background(), sw, WithWorkers(4), WithSink(NewJSONLSink(&jsonl)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("sweep yielded %d results, want %d", len(results), len(pts))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d (%s): %v", i, r.Point.Scenario.Name, r.Err)
		}
		if r.Replay.SimulatedTime != want[i].Replay.SimulatedTime || r.Replay.Actions != want[i].Replay.Actions {
			t.Fatalf("point %d (%s): sweep result %v/%d != batch %v/%d",
				i, r.Point.Scenario.Name,
				r.Replay.SimulatedTime, r.Replay.Actions,
				want[i].Replay.SimulatedTime, want[i].Replay.Actions)
		}
	}

	recs, err := ReadRecords(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pts) {
		t.Fatalf("JSONL sink has %d records, want %d", len(recs), len(pts))
	}
	byIndex := make(map[int]*Record, len(recs))
	for _, rec := range recs {
		byIndex[rec.Index] = rec
	}
	for i := range pts {
		rec := byIndex[i]
		if rec == nil {
			t.Fatalf("JSONL sink missed point %d", i)
		}
		if rec.Replay.SimulatedTime != want[i].Replay.SimulatedTime {
			t.Fatalf("point %d: JSONL SimulatedTime %v != %v", i, rec.Replay.SimulatedTime, want[i].Replay.SimulatedTime)
		}
		if rec.Fingerprint != pts[i].Fingerprint || rec.Sweep != "test-grid" {
			t.Fatalf("point %d: record metadata %+v", i, rec)
		}
	}
}

// TestResumeReplaysOnlyUnfinishedPoints is the acceptance test: kill a
// 64-point sweep midway (by breaking out of the stream), then re-run the
// same spec with the same store; only the unfinished points may execute,
// and every result — cached or fresh — must be bit-identical to a fresh
// batch.
func TestResumeReplaysOnlyUnfinishedPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("64-point grid in -short mode")
	}
	sw := gridSpec()
	sw.Store = filepath.Join(t.TempDir(), "results")

	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*scenario.Scenario, len(pts))
	for i, pt := range pts {
		ref[i] = pt.Scenario
	}
	want, err := runner.Run(context.Background(), ref, runner.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	// First run, killed after 20 results: the store keeps what completed.
	const killAfter = 20
	got := 0
	for r, err := range Run(context.Background(), sw, WithWorkers(4)) {
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Point.Scenario.Name, r.Err)
		}
		got++
		if got == killAfter {
			break
		}
	}
	store, err := OpenStore(sw.Store)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}
	// In-flight replays may land after the consumer broke off, but the
	// store can never exceed what the pool completed and never lose what
	// was streamed.
	if stored < killAfter || stored >= len(pts) {
		t.Fatalf("store holds %d results after killing at %d of %d", stored, killAfter, len(pts))
	}

	// Second run: exactly the missing points execute, and the full result
	// set is bit-identical to the fresh batch.
	executed := 0
	results, err := Collect(context.Background(), sw, WithWorkers(4),
		WithObserver(func(ev runner.Event) {
			if ev.Kind == runner.Started {
				executed++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(pts)-stored {
		t.Fatalf("resume executed %d points, want exactly the %d unfinished", executed, len(pts)-stored)
	}
	if len(results) != len(pts) {
		t.Fatalf("resume yielded %d results, want %d", len(results), len(pts))
	}
	cachedCount := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Cached {
			cachedCount++
		}
		if r.Replay.SimulatedTime != want[i].Replay.SimulatedTime || r.Replay.Actions != want[i].Replay.Actions {
			t.Fatalf("point %d (%s, cached=%v): %v/%d != fresh %v/%d",
				i, r.Point.Scenario.Name, r.Cached,
				r.Replay.SimulatedTime, r.Replay.Actions,
				want[i].Replay.SimulatedTime, want[i].Replay.Actions)
		}
	}
	if cachedCount != stored {
		t.Fatalf("resume served %d cached results, store had %d", cachedCount, stored)
	}

	// Third run: everything cached, nothing executes.
	executed = 0
	results, err = Collect(context.Background(), sw, WithWorkers(4),
		WithObserver(func(ev runner.Event) {
			if ev.Kind == runner.Started {
				executed++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("fully-stored sweep executed %d points", executed)
	}
	if len(results) != len(pts) {
		t.Fatalf("fully-stored sweep yielded %d results", len(results))
	}

	// Resume "off" ignores the store and re-runs everything.
	executed = 0
	if _, err := Collect(context.Background(), sw, WithWorkers(4), WithResume("off"),
		WithObserver(func(ev runner.Event) {
			if ev.Kind == runner.Started {
				executed++
			}
		})); err != nil {
		t.Fatal(err)
	}
	if executed != len(pts) {
		t.Fatalf("resume off executed %d points, want %d", executed, len(pts))
	}
}

func TestResumeOnRequiresStore(t *testing.T) {
	sw := &Sweep{
		Base: scenario.Scenario{
			Platform: flatSpec(2),
			Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 2},
		},
		Resume: "on",
	}
	_, err := Collect(context.Background(), sw)
	if err == nil || !strings.Contains(err.Error(), "store") {
		t.Fatalf("resume on without store: err = %v", err)
	}
}

func TestEditedSweepKeepsSharedPoints(t *testing.T) {
	mk := func(procs []any, labels []string) *Sweep {
		return &Sweep{
			Name: "edit",
			Base: scenario.Scenario{
				Platform: flatSpec(4),
				Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 2},
			},
			Axes: []Axis{{Name: "procs", Values: procs, Labels: labels}},
		}
	}
	small := mk([]any{
		map[string]any{"workload.procs": 2, "platform.hosts": 2},
	}, []string{"2"})
	store := filepath.Join(t.TempDir(), "store")
	small.Store = store
	if _, err := Collect(context.Background(), small); err != nil {
		t.Fatal(err)
	}

	// Editing the sweep (adding a procs value) must keep the completed
	// point cached and execute only the new one.
	grown := mk([]any{
		map[string]any{"workload.procs": 2, "platform.hosts": 2},
		map[string]any{"workload.procs": 4, "platform.hosts": 4},
	}, []string{"2", "4"})
	grown.Store = store
	executed := 0
	results, err := Collect(context.Background(), grown,
		WithObserver(func(ev runner.Event) {
			if ev.Kind == runner.Started {
				executed++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Fatalf("edited sweep executed %d points, want 1", executed)
	}
	if len(results) != 2 || !results[0].Cached || results[1].Cached {
		t.Fatalf("edited sweep results: %+v", results)
	}
}

func TestJSONLRoundTripsThroughStore(t *testing.T) {
	sw := &Sweep{
		Name: "rt",
		Base: scenario.Scenario{
			Platform: flatSpec(4),
			Workload: &scenario.WorkloadSpec{Benchmark: "cg", Class: "S", Procs: 4, Iterations: 2},
		},
		Axes: []Axis{{Name: "backend", Values: []any{"smpi", "msg"}}},
	}
	var jsonl bytes.Buffer
	results, err := Collect(context.Background(), sw, WithSink(NewJSONLSink(&jsonl)))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(results) {
		t.Fatalf("%d records for %d results", len(recs), len(results))
	}
	// Feed the sink's records into a fresh store and read them back: the
	// sink and the store share one schema, losslessly.
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range recs {
		back, err := store.Get(rec.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if back == nil {
			t.Fatalf("record %s lost", rec.Fingerprint)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("record %s changed through the store:\n%+v\n%+v", rec.Fingerprint, rec, back)
		}
	}
	// And a sweep resumed from that store serves the same replays.
	sw.Store = store.Dir()
	resumed, err := Collect(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resumed {
		if !r.Cached {
			t.Fatalf("point %d not cached after store import", i)
		}
		if r.Replay.SimulatedTime != results[i].Replay.SimulatedTime {
			t.Fatalf("point %d: %v != %v", i, r.Replay.SimulatedTime, results[i].Replay.SimulatedTime)
		}
	}
}

// TestSweepSharesCompiledTraceCache checks a TraceDesc-based sweep
// compiles the binary trace cache once up front (before the pool fans
// out) and that every point replays from it.
func TestSweepSharesCompiledTraceCache(t *testing.T) {
	dir := t.TempDir()
	w, err := npb.NewCG(npb.ClassS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var perRank [][]trace.Action
	prov := npb.AsProvider(w)
	for r := 0; r < prov.NumRanks(); r++ {
		st, err := prov.Rank(r)
		if err != nil {
			t.Fatal(err)
		}
		var acts []trace.Action
		for {
			var a trace.Action
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			acts = append(acts, a)
		}
		perRank = append(perRank, acts)
	}
	desc, err := trace.WriteSet(dir, "cg_s4", perRank)
	if err != nil {
		t.Fatal(err)
	}

	sw := &Sweep{
		Base: scenario.Scenario{
			Platform:  flatSpec(4),
			TraceDesc: desc,
		},
		Axes: []Axis{{Name: "backend", Values: []any{"smpi", "msg"}}},
	}
	results, err := Collect(context.Background(), sw, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(desc + ".tib"); err != nil {
		t.Fatalf("sweep did not build the shared trace cache: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Point.Scenario.Name, r.Err)
		}
	}
	// A second run must reuse the cache untouched.
	st1, err := os.Stat(desc + ".tib")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(context.Background(), sw, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	st2, err := os.Stat(desc + ".tib")
	if err != nil {
		t.Fatal(err)
	}
	if !st1.ModTime().Equal(st2.ModTime()) || st1.Size() != st2.Size() {
		t.Fatal("second sweep rebuilt the trace cache")
	}
}

// TestCSVSink checks the CSV sink's columns and rows. Rows arrive in
// completion order, which concurrent workers make nondeterministic, so each
// row is matched to its grid point by its index column.
func TestCSVSink(t *testing.T) {
	backends := []any{"smpi", "msg"}
	sw := &Sweep{
		Base: scenario.Scenario{
			Platform: flatSpec(2),
			Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 2},
		},
		Axes: []Axis{{Name: "backend", Values: backends}},
	}
	var csvBuf bytes.Buffer
	if _, err := Collect(context.Background(), sw, WithSink(NewCSVSink(&csvBuf, "backend"))); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(backends) {
		t.Fatalf("CSV has %d rows, want header + %d:\n%q", len(rows), len(backends), rows)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"index", "backend", "simulated_time", "error"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("CSV header %q lacks column %q", rows[0], name)
		}
	}
	seen := make([]bool, len(backends))
	for _, row := range rows[1:] {
		idx, err := strconv.Atoi(row[col["index"]])
		if err != nil || idx < 0 || idx >= len(backends) || seen[idx] {
			t.Fatalf("row %q: bad or repeated index", row)
		}
		seen[idx] = true
		if got, want := row[col["backend"]], backends[idx]; got != want {
			t.Fatalf("row %q: backend %q, want %q for grid point %d", row, got, want, idx)
		}
		if row[col["simulated_time"]] == "" || row[col["error"]] != "" {
			t.Fatalf("row %q: want a simulated time and no error", row)
		}
	}
}

func TestPerPointFailureDoesNotAbortSweep(t *testing.T) {
	sw := &Sweep{
		Base: scenario.Scenario{
			Platform: flatSpec(4),
			Workload: &scenario.WorkloadSpec{Benchmark: "ep", Class: "S", Procs: 4},
		},
		// procs 999 exceeds the platform: that point fails, the rest run.
		Axes: []Axis{{Name: "procs", Path: "workload.procs", Values: []any{2, 999, 4}}},
	}
	results, err := Collect(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good points failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("oversized point did not fail")
	}
}

func TestCancellationSkipsRemainingPoints(t *testing.T) {
	sw := gridSpec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, skipped := 0, 0
	for r, err := range Run(ctx, sw, WithWorkers(1)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			cancel()
		}
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if n != 64 {
		t.Fatalf("cancelled sweep yielded %d results, want all 64 (skipped carry the error)", n)
	}
	if skipped == 0 {
		t.Fatal("no point carried the cancellation error")
	}
}

// fakeModel satisfies sim.NetworkModel for validation tests.
type fakeModel struct{}

func (fakeModel) Effective(route sim.Route, size float64) (latency, rateCap float64) {
	return 0, 0
}

func TestSpecFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, []byte(fileSweepJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("file sweep expands to %d points, want 4", len(pts))
	}
	results, err := Collect(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Point.Scenario.Name, r.Err)
		}
		if r.Replay.SimulatedTime <= 0 {
			t.Fatalf("%s: no simulated time", r.Point.Scenario.Name)
		}
	}
}
