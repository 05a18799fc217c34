package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tireplay/internal/core"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/trace"
)

func flatSpec(hosts int) *platform.Spec {
	return &platform.Spec{
		Name: "test", Topology: "flat", Hosts: hosts, Speed: 1e9,
		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
	}
}

func luScenario(procs int) *Scenario {
	return &Scenario{
		Name:     "lu",
		Platform: flatSpec(procs),
		Workload: &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: procs, Iterations: 2},
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name string
		s    *Scenario
	}{
		{"empty", &Scenario{}},
		{"no trace source", &Scenario{Platform: flatSpec(4)}},
		{"two trace sources", &Scenario{
			Platform:  flatSpec(4),
			TraceDesc: "x.desc",
			Workload:  &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
		}},
		{"two platform sources", &Scenario{
			Platform: flatSpec(4), PlatformFile: "p.json",
			Workload: &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
		}},
		{"unknown backend", &Scenario{
			Platform: flatSpec(4),
			Workload: &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
			Backend:  "no-such-backend",
		}},
		{"unknown benchmark", &Scenario{
			Platform: flatSpec(4),
			Workload: &WorkloadSpec{Benchmark: "is", Class: "S", Procs: 4},
		}},
		{"trace format without desc", &Scenario{
			Platform:    flatSpec(4),
			Workload:    &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
			TraceFormat: "dumpi",
		}},
		{"unknown trace format", &Scenario{
			Platform:    flatSpec(4),
			TraceDesc:   "x.desc",
			TraceFormat: "no-such-format",
		}},
		{"bad class", &Scenario{
			Platform: flatSpec(4),
			Workload: &WorkloadSpec{Benchmark: "lu", Class: "Z", Procs: 4},
		}},
		{"acquisition without workload", &Scenario{
			Platform:    flatSpec(4),
			TraceDesc:   "x.desc",
			Acquisition: &AcquisitionSpec{Mode: "minimal", Compile: "O3"},
		}},
		{"bad acquisition mode", &Scenario{
			Platform:    flatSpec(4),
			Workload:    &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
			Acquisition: &AcquisitionSpec{Mode: "nope", Compile: "O3"},
		}},
		{"unknown acquisition cluster", &Scenario{
			Platform:    flatSpec(4),
			Workload:    &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
			Acquisition: &AcquisitionSpec{Mode: "fine", Compile: "O0", Cluster: "nowhere"},
		}},
		{"negative mapping", &Scenario{
			Platform:    flatSpec(4),
			Workload:    &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
			HostMapping: []int{0, -1, 2, 3},
		}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", tc.name)
		}
	}
	if err := luScenario(4).Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestRunWorkloadScenario(t *testing.T) {
	res, err := luScenario(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 || res.Actions <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunMSGBackendScenario(t *testing.T) {
	s := luScenario(4)
	s.Backend = "msg"
	s.MSG.RefLatency, s.MSG.RefBandwidth = 6.5e-5, 1.25e8
	msg, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	smpi, err := luScenario(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.SimulatedTime == smpi.SimulatedTime {
		t.Fatal("msg and smpi backends predicted identical times; backend knob ignored?")
	}
}

func TestRunTraceFileScenario(t *testing.T) {
	// Round-trip: generate, write, replay from disk via the scenario.
	lu, err := npb.NewLU(npb.ClassS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var perRank [][]trace.Action
	for r := 0; r < 4; r++ {
		st, err := npb.AsProvider(lu).Rank(r)
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
	dir := t.TempDir()
	desc, err := trace.WriteSet(dir, "lu_s4", perRank)
	if err != nil {
		t.Fatal(err)
	}

	s := &Scenario{
		Platform:      flatSpec(4),
		TraceDesc:     desc,
		ValidateTrace: true,
	}
	fromFile, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fromWorkload, err := luScenario(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.SimulatedTime != fromWorkload.SimulatedTime {
		t.Fatalf("file replay %v != workload replay %v",
			fromFile.SimulatedTime, fromWorkload.SimulatedTime)
	}
}

func TestMergedTraceRanksDefaultToPlatformSize(t *testing.T) {
	// A single-entry description serves all ranks from one merged trace;
	// with Ranks unset the platform's host count must be used (the smpirun
	// -np inference), not a single unfiltered rank.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "merged.trace"),
		[]byte("p0 compute 1000\np0 send p1 1240\np1 recv p0 1240\np1 compute 500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "merged.desc"), []byte("merged.trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &Scenario{
		Platform:  flatSpec(2),
		TraceDesc: filepath.Join(dir, "merged.desc"),
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions != 4 {
		t.Fatalf("replayed %d actions, want 4 (both ranks served from the merged trace)", res.Actions)
	}
}

func TestRunPlatformFileScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plat.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.WriteSpec(f, flatSpec(4)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := luScenario(4)
	s.Platform, s.PlatformFile = nil, path
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestRunAcquiredScenarioSlower(t *testing.T) {
	// The instrumented acquisition inflates compute volumes, so its replay
	// must predict a strictly larger time than the perfect trace's.
	perfect, err := luScenario(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := luScenario(4)
	s.Acquisition = &AcquisitionSpec{Mode: "fine", Compile: "O0", Cluster: "graphene"}
	acquired, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if acquired.SimulatedTime <= perfect.SimulatedTime {
		t.Fatalf("acquired replay %v <= perfect replay %v",
			acquired.SimulatedTime, perfect.SimulatedTime)
	}
}

func TestRunHostMapping(t *testing.T) {
	// Map 2 ranks onto hosts 0 and 3 of a larger platform.
	s := &Scenario{
		Platform: flatSpec(8),
		Provider: trace.NewMemProvider([][]trace.Action{
			{{Rank: 0, Kind: trace.Send, Peer: 1, Bytes: 1e6}},
			{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 1e6}},
		}),
		HostMapping: []int{0, 3},
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.HostMapping = []int{0, 99}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("out-of-range host mapping accepted")
	}
}

func TestNoNetworkFactors(t *testing.T) {
	withFactors := func(nn bool) *Scenario {
		spec := flatSpec(2)
		spec.Factors = []platform.SegmentSpec{
			{MaxBytes: 65536, LatFactor: 3, BwFactor: 0.3},
			{MaxBytes: 0, LatFactor: 2, BwFactor: 0.5},
		}
		return &Scenario{
			Platform:         spec,
			NoNetworkFactors: nn,
			Provider: trace.NewMemProvider([][]trace.Action{
				{{Rank: 0, Kind: trace.Send, Peer: 1, Bytes: 1e6}},
				{{Rank: 1, Kind: trace.Recv, Peer: 0, Bytes: 1e6}},
			}),
		}
	}
	factored, err := withFactors(false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := withFactors(true).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if factored.SimulatedTime <= plain.SimulatedTime {
		t.Fatalf("factors had no effect: %v vs %v", factored.SimulatedTime, plain.SimulatedTime)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := luScenario(4).Run(ctx); err == nil {
		t.Fatal("cancelled context not honoured")
	}
}

func TestHostSpeedOverride(t *testing.T) {
	slow := luScenario(4)
	slow.HostSpeed = 1e8
	fast := luScenario(4)
	fast.HostSpeed = 1e10
	sres, err := slow.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fast.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sres.SimulatedTime <= fres.SimulatedTime {
		t.Fatalf("slower hosts predicted faster execution: %v vs %v",
			sres.SimulatedTime, fres.SimulatedTime)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []*Scenario{
		{
			Name:     "lu-b8-smpi",
			Platform: flatSpec(8),
			Workload: &WorkloadSpec{Benchmark: "lu", Class: "B", Procs: 8, Iterations: 5},
			Backend:  "smpi",
		},
		{
			Name:        "cg-a16-msg",
			Platform:    flatSpec(16),
			Workload:    &WorkloadSpec{Benchmark: "cg", Class: "A", Procs: 16, Iterations: 5},
			Backend:     "msg",
			HostMapping: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost scenarios: %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Name != in[i].Name || out[i].Backend != in[i].Backend {
			t.Fatalf("scenario %d metadata lost: %+v", i, out[i])
		}
		if *out[i].Workload != *in[i].Workload {
			t.Fatalf("scenario %d workload lost: %+v", i, out[i].Workload)
		}
		if out[i].Platform.Hosts != in[i].Platform.Hosts {
			t.Fatalf("scenario %d platform lost: %+v", i, out[i].Platform)
		}
		if err := out[i].Validate(); err != nil {
			t.Fatalf("scenario %d invalid after round trip: %v", i, err)
		}
	}
	// Decoded scenarios must actually run.
	res, err := out[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no simulated time")
	}
}

// typoedFields are scenario files with one misspelled knob each, top level
// or nested, and the field the decoding error must name.
var typoedFields = []struct {
	json, field string
}{
	{`[{"bckend": "smpi"}]`, "bckend"},
	{`[{"workload": {"benchmark": "lu", "class": "S", "prcs": 4}}]`, "prcs"},
	{`[{"mpi": {"eager_treshold": 1024}}]`, "eager_treshold"},
	{`[{"msg": {"ref_lat": 1e-5}}]`, "ref_lat"},
	{`[{"platform": {"topology": "flat", "hosts": 4, "sped": 1e9}}]`, "sped"},
}

// TestStrictDecodingNamesOffendingField: a typoed knob anywhere in a
// scenario file — top level or inside a nested config — must fail loudly
// with an error naming the field, never silently select defaults.
func TestStrictDecodingNamesOffendingField(t *testing.T) {
	for _, tc := range typoedFields {
		_, err := ReadAll(bytes.NewReader([]byte(tc.json)))
		if err == nil {
			t.Errorf("%s: decoded without error", tc.json)
			continue
		}
		if !bytes.Contains([]byte(err.Error()), []byte(tc.field)) {
			t.Errorf("%s: error %v does not name field %q", tc.json, err, tc.field)
		}
	}
}

// TestRetiredGoroutineProcsRejected: the goroutine scheduler is gone, and a
// scenario still selecting it must fail decoding naming the field rather
// than run on a scheduler it did not ask for.
func TestRetiredGoroutineProcsRejected(t *testing.T) {
	_, err := ReadAll(strings.NewReader(`[{"goroutine_procs": true}]`))
	const want = `scenario: decoding: json: unknown field "goroutine_procs"`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestReadAllRejectsNullEntry: a null array entry has no scenario to run
// and must be reported by index, not handed to the runner as a nil pointer.
func TestReadAllRejectsNullEntry(t *testing.T) {
	_, err := ReadAll(strings.NewReader(`[{"name": "a"}, null]`))
	const want = "scenario: decoding: entry 1 is null"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// quickBatchJSON is a one-scenario batch file that runs in milliseconds.
const quickBatchJSON = `[
  {
    "name": "quick",
    "platform": {"name": "c", "topology": "flat", "hosts": 4, "speed": 1e9,
      "link_bandwidth": 1.25e8, "link_latency": 2e-5,
      "backbone_bandwidth": 1.25e9, "backbone_latency": 1e-6},
    "workload": {"benchmark": "cg", "class": "S", "procs": 4, "iterations": 2}
  }
]`

func TestLoadScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(path, []byte(quickBatchJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 {
		t.Fatalf("loaded %d scenarios, want 1", len(scenarios))
	}
	res, err := scenarios[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("no simulated time")
	}
}

// The compiled binary trace cache must be bit-identical to text replay:
// same simulated time, same action count — the cache is an ingestion
// optimization, never a model change.
func TestTraceCacheModesBitIdentical(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, 4)
	for r := 0; r < 4; r++ {
		st, err := npb.AsProvider(lu).Rank(r)
		if err != nil {
			t.Fatal(err)
		}
		for {
			var a trace.Action
			ok, err := st.Next(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			perRank[r] = append(perRank[r], a)
		}
	}
	dir := t.TempDir()
	desc, err := trace.WriteSet(dir, "lu_s4", perRank)
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode string) *core.Result {
		t.Helper()
		s := &Scenario{
			Platform:   flatSpec(4),
			TraceDesc:  desc,
			TraceCache: mode,
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		return res
	}

	text := run("off")
	if _, err := os.Stat(desc + trace.TIBExt); err == nil {
		t.Fatal("TraceCache off still wrote a .tib cache")
	}
	compiled := run("on")
	if _, err := os.Stat(desc + trace.TIBExt); err != nil {
		t.Fatalf("TraceCache on did not write the sibling cache: %v", err)
	}
	auto := run("auto")

	if compiled.SimulatedTime != text.SimulatedTime || auto.SimulatedTime != text.SimulatedTime {
		t.Fatalf("simulated times diverge: text %v, on %v, auto %v",
			text.SimulatedTime, compiled.SimulatedTime, auto.SimulatedTime)
	}
	if compiled.Actions != text.Actions || auto.Actions != text.Actions {
		t.Fatalf("action counts diverge: text %d, on %d, auto %d",
			text.Actions, compiled.Actions, auto.Actions)
	}
}

// A TraceDesc pointing directly at a compiled .tib file (tracegen -tib
// output) must replay without any description file.
func TestTraceDescAcceptsTIBDirectly(t *testing.T) {
	lu, err := npb.NewLU(npb.ClassS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var perRank [][]trace.Action
	for r := 0; r < 4; r++ {
		st, err := npb.AsProvider(lu).Rank(r)
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
	tibPath := filepath.Join(t.TempDir(), "lu_s4.tib")
	if err := trace.WriteTIBFile(tibPath, perRank); err != nil {
		t.Fatal(err)
	}

	s := &Scenario{Platform: flatSpec(4), TraceDesc: tibPath}
	direct, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fromWorkload, err := luScenario(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if direct.SimulatedTime != fromWorkload.SimulatedTime {
		t.Fatalf("direct .tib replay %v != workload replay %v",
			direct.SimulatedTime, fromWorkload.SimulatedTime)
	}
}

func TestValidateTraceCacheKnob(t *testing.T) {
	bad := &Scenario{Platform: flatSpec(4), TraceDesc: "x.desc", TraceCache: "maybe"}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown trace cache mode")
	}
	wrongSource := &Scenario{
		Platform:   flatSpec(4),
		Workload:   &WorkloadSpec{Benchmark: "lu", Class: "S", Procs: 4},
		TraceCache: "on",
	}
	if err := wrongSource.Validate(); err == nil {
		t.Fatal("Validate accepted TraceCache without a TraceDesc source")
	}
	for _, mode := range []string{"", "auto", "on", "off"} {
		s := &Scenario{Platform: flatSpec(4), TraceDesc: "x.desc", TraceCache: mode}
		if err := s.Validate(); err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
	}
}

// TestForeignActionInRankTraceRejected: the trace file of rank 0 holding
// an action of rank 1 fails ingestion, naming file and line, whether the
// text is replayed (trace_cache off) or compiled first (on), on both
// backends. It used to replay: SMPI panicked on a send to self, MSG ran
// it, or deadlocked on the receive.
func TestForeignActionInRankTraceRejected(t *testing.T) {
	for _, line := range []string{"p1 send p0 8", "p1 recv p0 8"} {
		dir := t.TempDir()
		files := map[string]string{
			"r_0.trace": "p0 init\n" + line + "\np0 finalize\n",
			"r_1.trace": "p1 init\np1 finalize\n",
			"r.desc":    "r_0.trace\nr_1.trace\n",
		}
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kind := strings.Fields(line)[1]
		want := filepath.Join(dir, "r_0.trace") + ": rank 0: line 2: trace: p1 " + kind + " in the trace of rank 0"
		for _, backend := range []string{"smpi", "msg"} {
			for _, cache := range []string{"off", "on"} {
				s := &Scenario{Platform: flatSpec(2), TraceDesc: filepath.Join(dir, "r.desc"),
					TraceCache: cache, Backend: backend}
				_, err := s.Run(context.Background())
				var te *trace.TraceError
				if !errors.As(err, &te) || !strings.Contains(err.Error(), want) {
					t.Errorf("%q, %s, trace_cache %s: err = %v, want a *trace.TraceError containing %q",
						line, backend, cache, err, want)
				}
			}
		}
	}
}
