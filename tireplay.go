// Package tireplay is an off-line simulator for MPI applications driven by
// time-independent traces, reproducing "Improving the Accuracy and
// Efficiency of Time-Independent Trace Replay" (Desprez, Markomanolis,
// Suter — INRIA RR-8092, 2012).
//
// A time-independent trace records, per rank, only *volumes*: numbers of
// instructions computed between MPI calls and bytes moved by each MPI call
// — no timestamps. Such traces can be acquired on any machine (even several
// heterogeneous ones) and replayed on a simulated target platform to
// predict the application's execution time there.
//
// The package exposes the full tool chain:
//
//   - platform description, built from one PlatformSpec: flat,
//     hierarchical, and crossbar clusters plus the topology zoo — k-ary fat
//     trees, dragonflies, and 2D/3D tori with real deterministic routing —
//     and piece-wise linear network factor models;
//   - the trace format: parsing, writing, validation, streaming, the
//     compiled TIB binary cache, and an importer registry (DUMPI ASCII,
//     TAU profiles, custom formats) folding foreign acquisitions into the
//     same pipeline;
//   - two replay backends lowered by one driver: the accurate SMPI-style
//     backend (eager/rendezvous protocols, collectives as point-to-point
//     trees) and the legacy MSG-style baseline the paper improves upon;
//   - workload models of the NAS Parallel Benchmarks (LU, CG, EP, MG, BT,
//     SP, FT) that generate traces of any class/process count;
//   - emulated ground-truth clusters (bordereau, graphene) and the
//     instrumentation model used to study acquisition overheads;
//   - the two calibration procedures (classic A-4 and cache-aware);
//   - a declarative, JSON-serializable Scenario description (platform,
//     trace source, backend, model knobs) and a concurrent batch runner;
//   - a first-class Sweep subsystem: parameter grids declared as a base
//     scenario plus axes, expanded deterministically, streamed through a
//     worker pool into pluggable sinks (JSONL, CSV), and persisted in a
//     fingerprint-keyed result store so interrupted or edited sweeps
//     resume instead of re-running;
//   - the sweep service (Serve, SubmitSweep, StreamResults, Work): sweeps
//     over HTTP against one shared result store, identical points
//     deduplicated across concurrent clients by scenario fingerprint, and
//     a work-stealing lease protocol so external worker processes on any
//     machine help drain the queue with crash tolerance.
//
// Single replay quick start:
//
//	spec := tireplay.PlatformSpec{
//		Name: "mycluster", Topology: "flat", Hosts: 8, Speed: 2e9,
//		LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
//		BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6,
//	}
//	plat, model, err := spec.Build()
//	prov, err := tireplay.LoadTraces("traces/lu_b8.desc", 8)
//	res, err := tireplay.Replay(prov, plat, tireplay.ReplayConfig{Network: model})
//	fmt.Printf("predicted time: %.2f s\n", res.SimulatedTime)
//
// Sweep quick start — declare the grid once (no nested loops), stream
// results as they complete, and persist them so a re-run only replays
// what is missing; one failing point never aborts the rest:
//
//	sw := &tireplay.Sweep{
//		Name: "lu-scaling",
//		Base: tireplay.Scenario{
//			Platform: &tireplay.PlatformSpec{Topology: "flat", Hosts: 64,
//				Speed: 2e9, LinkBandwidth: 1.25e8, LinkLatency: 2e-5,
//				BackboneBandwidth: 1.25e9, BackboneLatency: 1e-6},
//			Workload: &tireplay.WorkloadSpec{Benchmark: "lu", Class: "B", Procs: 8},
//		},
//		NameFormat: "lu-b-{procs}",
//		Axes: []tireplay.SweepAxis{{Name: "procs", Values: []any{
//			map[string]any{"workload.procs": 8, "platform.hosts": 8},
//			map[string]any{"workload.procs": 16, "platform.hosts": 16},
//			map[string]any{"workload.procs": 32, "platform.hosts": 32},
//			map[string]any{"workload.procs": 64, "platform.hosts": 64},
//		}, Labels: []string{"8", "16", "32", "64"}}},
//		Store: "results.store", // resume from here on the next run
//	}
//	for r, err := range tireplay.RunSweep(ctx, sw, tireplay.WithSweepWorkers(4)) {
//		if err != nil {
//			log.Fatal(err) // spec/store/sink failure
//		}
//		if r.Err != nil {
//			fmt.Printf("%s: %v\n", r.Point.Scenario.Name, r.Err)
//			continue
//		}
//		fmt.Printf("%s: %.2f s\n", r.Point.Scenario.Name, r.Replay.SimulatedTime)
//	}
//
// The same grid as a JSON file runs with the command-line driver:
//
//	tireplay -sweep grid.json -out results.jsonl -resume
package tireplay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"slices"
	"time"

	"tireplay/internal/calibrate"
	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/runner"
	"tireplay/internal/scenario"
	"tireplay/internal/serve"
	"tireplay/internal/sim"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
)

// Core trace types.
type (
	// Action is one event of a time-independent trace.
	Action = trace.Action
	// ActionKind enumerates trace action types.
	ActionKind = trace.Kind
	// TraceProvider hands out per-rank action streams.
	TraceProvider = trace.Provider
	// TraceStream is a pull-based per-rank action source and the one place
	// an action is checked. Next(a *Action) (ok bool, err error) fills the
	// caller's record with the next action, valid in the provider's rank
	// count and belonging to the stream's rank, or reports a malformed
	// trace naming its file, rank and line; a.Volumes is the stream's,
	// read-only and valid until the next call. A custom stream must keep
	// this contract: replay does not check again.
	TraceStream = trace.Stream
	// TraceStats summarizes trace volumes.
	TraceStats = trace.Stats
)

// Platform and network types.
type (
	// Platform is a simulated execution platform.
	Platform = platform.Platform
	// NetworkSegment is one piece of a piece-wise-linear network model, as
	// PlatformSpec.Factors takes it.
	NetworkSegment = platform.SegmentSpec
	// NetworkModel adjusts latency/bandwidth per message size.
	NetworkModel = sim.NetworkModel
	// PlatformSpec is the serializable platform description; its Build
	// method builds every cluster shape ("flat", "hierarchical",
	// "crossbar", "fattree", "dragonfly", "torus") and its factor model.
	PlatformSpec = platform.Spec
)

// Replay types.
type (
	// ReplayConfig parameterizes a replay (backend, network model, MPI
	// model knobs).
	ReplayConfig = core.Config
	// ReplayResult reports the simulated time and replay statistics.
	ReplayResult = core.Result
	// MPIModelConfig tunes the SMPI backend's communication model.
	MPIModelConfig = mpi.ModelConfig
	// MSGConfig tunes the legacy backend.
	MSGConfig = msgreplay.Config
)

// MSGPrototypeConfig returns the reference network figures the original MSG
// prototype hard-coded, for paper-faithful replays of the first
// implementation.
func MSGPrototypeConfig() MSGConfig { return msgreplay.PrototypeConfig() }

// Backend selection.
const (
	// SMPI is the accurate backend introduced by the paper (Section 3.3).
	SMPI = core.SMPI
	// MSG is the first-prototype baseline backend (Section 2.4).
	MSG = core.MSG
)

// TraceError reports a malformed trace detected during replay.
type TraceError = core.TraceError

// Malformed-trace error causes, matchable with errors.Is on the error
// returned by Replay or Scenario.Run.
var (
	ErrNoOutstandingRequest = core.ErrNoOutstandingRequest
	ErrUnsupportedAction    = core.ErrUnsupportedAction
)

// Backends returns the sorted names of the replay backends.
func Backends() []string { return core.Backends() }

// Scenario and batch-runner types.
type (
	// Scenario is a declarative, JSON-serializable replay description with
	// Validate and Run(ctx) methods.
	Scenario = scenario.Scenario
	// WorkloadSpec selects an NPB workload model as a scenario's trace
	// source.
	WorkloadSpec = scenario.WorkloadSpec
	// AcquisitionSpec asks for the instrumented acquisition's trace.
	AcquisitionSpec = scenario.AcquisitionSpec
	// ScenarioResult is the outcome of one scenario of a batch.
	ScenarioResult = runner.Result
	// RunnerEvent is a batch progress notification.
	RunnerEvent = runner.Event
	// RunnerOption configures RunScenarios.
	RunnerOption = runner.Option
)

// Runner event kinds.
const (
	ScenarioStarted  = runner.Started
	ScenarioFinished = runner.Finished
)

// RunScenarios executes a batch of scenarios on a worker pool and returns
// one result per scenario, in input order. Per-scenario results are
// bit-identical to sequential execution regardless of the worker count; a
// failing scenario is reported in its result and does not abort the batch.
// The returned error is non-nil only when ctx is cancelled.
func RunScenarios(ctx context.Context, scenarios []*Scenario, opts ...RunnerOption) ([]ScenarioResult, error) {
	return runner.Run(ctx, scenarios, opts...)
}

// WithWorkers sets the batch worker-pool size; n < 1 selects GOMAXPROCS.
func WithWorkers(n int) RunnerOption { return runner.WithWorkers(n) }

// WithObserver installs a serialized per-scenario progress callback.
func WithObserver(f func(RunnerEvent)) RunnerOption { return runner.WithObserver(f) }

// LoadScenarios reads a JSON array of scenarios from a file.
func LoadScenarios(path string) ([]*Scenario, error) { return scenario.Load(path) }

// Sweep subsystem types: declarative parameter grids over a base scenario.
type (
	// Sweep is a JSON-serializable parameter grid: a base Scenario
	// template plus axes expanded as a cartesian product, with optional
	// skip constraints, a name template, and a persistent result store.
	Sweep = sweep.Sweep
	// SweepAxis is one named parameter dimension of a sweep.
	SweepAxis = sweep.Axis
	// SweepPoint is one expanded grid point: a concrete scenario plus its
	// axis values and deterministic fingerprint.
	SweepPoint = sweep.Point
	// SweepResult is the outcome of one grid point.
	SweepResult = sweep.Result
	// SweepRecord is the serialized result form shared by the result store
	// and the JSONL sink.
	SweepRecord = sweep.Record
	// SweepStore is the persistent fingerprint-keyed result store.
	SweepStore = sweep.Store
	// SweepSink consumes streamed sweep results (JSONL, CSV, or custom).
	SweepSink = sweep.Sink
	// SweepOption configures RunSweep.
	SweepOption = sweep.Option
)

// RunSweep expands the sweep and executes it on a worker pool, yielding
// results as they complete: stored results first (when resuming), then
// live replays in completion order. Per-point failures ride in
// SweepResult.Err; a non-nil iterator error (spec, store, or sink failure)
// is fatal and ends the iteration. With a result store configured, every
// successful replay persists under its scenario fingerprint and re-running
// the sweep replays only the missing points.
func RunSweep(ctx context.Context, sw *Sweep, opts ...SweepOption) iter.Seq2[SweepResult, error] {
	return sweep.Run(ctx, sw, opts...)
}

// CollectSweep drains RunSweep into a slice ordered by grid index.
func CollectSweep(ctx context.Context, sw *Sweep, opts ...SweepOption) ([]SweepResult, error) {
	return sweep.Collect(ctx, sw, opts...)
}

// LoadSweep strictly decodes a JSON sweep spec from a file: unknown fields
// anywhere in the spec fail with an error naming the offending field.
func LoadSweep(path string) (*Sweep, error) { return sweep.Load(path) }

// WithSweepWorkers sets the sweep worker-pool size; n < 1 selects
// GOMAXPROCS.
func WithSweepWorkers(n int) SweepOption { return sweep.WithWorkers(n) }

// WithSink attaches a result sink; every streamed result is written to
// each attached sink in completion order.
func WithSink(s SweepSink) SweepOption { return sweep.WithSink(s) }

// WithStore overrides the sweep's result-store directory.
func WithStore(dir string) SweepOption { return sweep.WithStore(dir) }

// WithResume overrides the sweep's resume mode: "auto" (default — reuse
// stored results when a store is configured), "on" (require a store), or
// "off" (re-run everything, overwriting stored results).
func WithResume(mode string) SweepOption { return sweep.WithResume(mode) }

// NewJSONLSink writes one JSON SweepRecord per line to w; the lines read
// back with ReadSweepRecords and round-trip through the result store.
func NewJSONLSink(w io.Writer) SweepSink { return sweep.NewJSONLSink(w) }

// NewCSVSink writes results as CSV rows to w, with one extra column per
// named axis.
func NewCSVSink(w io.Writer, axes ...string) SweepSink { return sweep.NewCSVSink(w, axes...) }

// ReadSweepRecords decodes a JSONL stream of sweep records (the JSONL
// sink's output).
func ReadSweepRecords(r io.Reader) ([]*SweepRecord, error) { return sweep.ReadRecords(r) }

// OpenSweepStore opens (creating if needed) a sweep result store.
func OpenSweepStore(dir string) (*SweepStore, error) { return sweep.OpenStore(dir) }

// ScenarioFingerprint returns the deterministic identity of a scenario's
// replay-relevant configuration (hex SHA-256 of its canonical JSON, display
// name excluded) — the key sweeps store results under.
func ScenarioFingerprint(s *Scenario) (string, error) { return sweep.Fingerprint(s) }

// Sweep service types: sweeps as a long-lived HTTP service with a shared
// result store and work-stealing workers.
type (
	// ServeConfig parameterizes a sweep server (store directory, embedded
	// worker count, lease TTL).
	ServeConfig = serve.Config
	// SweepServer is the sweep service: submitted sweeps are deduplicated
	// by scenario fingerprint against one shared store, streamed back as
	// NDJSON, and drained by embedded and external workers.
	SweepServer = serve.Server
	// SweepClient talks to a sweep server (submit, stream, lease).
	SweepClient = serve.Client
	// SweepSubmit is the server's accounting for one submission.
	SweepSubmit = serve.SubmitResponse
	// SweepServiceStatus is one submitted sweep's progress.
	SweepServiceStatus = serve.SweepStatus
	// ServeStats are the server's dedup/queue counters.
	ServeStats = serve.Stats
	// WorkerOptions configures a Work loop.
	WorkerOptions = serve.WorkerOptions
)

// NewSweepServer builds a sweep server over a shared result store and
// starts its embedded workers; expose it with Handler (any http mux) or
// let Serve listen for you, and stop it with Close.
func NewSweepServer(cfg ServeConfig) (*SweepServer, error) { return serve.New(cfg) }

// NewSweepClient returns a client for the sweep server at base, e.g.
// "http://127.0.0.1:9411".
func NewSweepClient(base string) *SweepClient { return serve.NewClient(base) }

// Serve runs a sweep server on addr until ctx is cancelled. Submitted
// sweeps share one result store: points already stored are served from
// cache, points in flight for one client are joined by every other, so N
// clients submitting overlapping grids cost one replay per distinct
// scenario fingerprint. A durable journal next to the store makes open
// sweeps survive restarts, and cancellation drains gracefully: no new
// leases, in-flight work gets cfg.Drain (default 10s) to post, the
// journal is flushed, then the listener closes.
func Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			drain := cfg.Drain
			if drain <= 0 {
				drain = 10 * time.Second
			}
			dctx, cancel := context.WithTimeout(context.Background(), drain)
			s.Shutdown(dctx) //nolint:errcheck // drains leases, ends streams, closes the journal
			cancel()
			srv.Shutdown(context.Background()) //nolint:errcheck
		case <-done:
		}
	}()
	defer close(done)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// SubmitSweep registers a sweep with a running sweep server and returns
// its ID and point accounting (cached, merged with in-flight work, or
// newly queued).
func SubmitSweep(ctx context.Context, server string, sw *Sweep) (*SweepSubmit, error) {
	return serve.NewClient(server).Submit(ctx, sw)
}

// StreamResults yields a submitted sweep's records in completion order,
// blocking until every point has a terminal result. Pair with
// SubmitSweep's returned ID.
func StreamResults(ctx context.Context, server, id string) iter.Seq2[*SweepRecord, error] {
	return serve.NewClient(server).Stream(ctx, id)
}

// Work runs a worker loop against a sweep server: lease a point, replay
// it locally, post the record back, repeat until ctx is cancelled.
// Leases are heartbeat-extended; a worker that dies has its points
// reclaimed by the server's lease TTL.
func Work(ctx context.Context, server string, opts WorkerOptions) error {
	return serve.Work(ctx, server, opts)
}

// Workload types.
type (
	// Workload generates per-rank operation streams (LU, CG, or custom).
	Workload = npb.Workload
	// LU is the NAS LU benchmark model.
	LU = npb.LU
	// CG is the NAS CG benchmark model.
	CG = npb.CG
	// EP is the NAS EP benchmark model (compute-only extreme).
	EP = npb.EP
	// MG is the NAS MG benchmark model (multigrid V-cycles, 3D halos).
	MG = npb.MG
	// BT is the NAS BT benchmark model (block-tridiagonal sweeps, waitsome
	// face drains).
	BT = npb.BT
	// SP is the NAS SP benchmark model (scalar pentadiagonal sweeps, waitany
	// face drains).
	SP = npb.SP
	// FT is the NAS FT benchmark model (3D FFT, alltoallv transposes).
	FT = npb.FT
	// NPBClass is an NPB problem class (S, W, A, B, C, D).
	NPBClass = npb.Class
)

// NPB classes.
const (
	ClassS = npb.ClassS
	ClassW = npb.ClassW
	ClassA = npb.ClassA
	ClassB = npb.ClassB
	ClassC = npb.ClassC
	ClassD = npb.ClassD
)

// Ground-truth and acquisition types.
type (
	// GroundCluster is an emulated real cluster.
	GroundCluster = ground.Cluster
	// InstrumentationMode selects probe granularity.
	InstrumentationMode = instrument.Mode
	// AcquisitionConfig describes how a trace acquisition run is built and
	// instrumented.
	AcquisitionConfig = instrument.Config
	// CacheAwareCalibration is the per-class rate table of Section 3.4.
	CacheAwareCalibration = calibrate.CacheAware
)

// Instrumentation modes.
const (
	Uninstrumented         = instrument.None
	CoarseInstrumentation  = instrument.Coarse
	MinimalInstrumentation = instrument.Minimal
	FineInstrumentation    = instrument.Fine
)

// CompileLevel is the optimization level of an acquisition build.
type CompileLevel = instrument.Compile

// Compile levels.
const (
	CompileO0 = instrument.O0
	CompileO3 = instrument.O3
)

// LoadPlatform reads a JSON platform description (the replay equivalent of
// the paper's platform.xml) and builds it.
func LoadPlatform(path string) (*Platform, NetworkModel, error) {
	spec, err := platform.LoadSpec(path)
	if err != nil {
		return nil, nil, err
	}
	return spec.Build()
}

// LoadTraces opens a trace-description file (one trace file per line; a
// single entry serves all nranks ranks from a merged trace, as in the
// paper).
func LoadTraces(descPath string, nranks int) (TraceProvider, error) {
	return trace.LoadDescription(descPath, nranks)
}

// TracesInMemory wraps per-rank action slices as a provider.
func TracesInMemory(perRank [][]Action) TraceProvider {
	return trace.NewMemProvider(perRank)
}

// WriteTraces writes per-rank trace files plus a description file and
// returns the description path.
func WriteTraces(dir, prefix string, perRank [][]Action) (string, error) {
	return trace.WriteSet(dir, prefix, perRank)
}

// WriteFoldedTraces is WriteTraces with loop-folded files: consecutively
// repeated action blocks (an iterative application's time steps) are stored
// once with a repetition count, typically shrinking traces by the iteration
// count. LoadTraces expands folded files transparently.
func WriteFoldedTraces(dir, prefix string, perRank [][]Action) (string, error) {
	return trace.WriteFoldedSet(dir, prefix, perRank)
}

// CompileTraces compiles the trace set named by a description file into a
// sibling binary cache at descPath+".tib" (the TIB format: varint-encoded
// actions behind a per-rank offset index, every region checksummed).
// Ingesting a compiled trace seeks straight to each rank's section instead
// of re-parsing — and, for merged single-file traces, re-scanning — the
// text, which is what makes large batch sweeps cheap to feed. A cache
// whose recorded source fingerprint (file names, sizes, mtimes) still
// matches is reused; rebuilt reports whether a compile actually ran.
// Scenario replays with the default TraceCache ("auto") build and use this
// cache transparently.
func CompileTraces(descPath string, nranks int) (tibPath string, rebuilt bool, err error) {
	return trace.CompileDescription(descPath, nranks, 0)
}

// TraceDescriptionEntries returns how many trace files a description file
// lists; a single entry is the merged layout and needs an explicit rank
// count to compile or replay.
func TraceDescriptionEntries(descPath string) (int, error) {
	return trace.DescriptionEntries(descPath)
}

// LoadTIB opens a compiled .tib trace as a provider. The provider holds a
// file descriptor; close it (it is an io.Closer) when done.
func LoadTIB(path string) (TraceProvider, error) {
	return trace.OpenTIB(path)
}

// WriteTIB writes per-rank actions directly as a standalone compiled .tib
// file, usable anywhere a trace description is accepted.
func WriteTIB(path string, perRank [][]Action) error {
	return trace.WriteTIBFile(path, perRank)
}

// TraceImportOptions tunes how a foreign trace's volumes are mapped onto
// actions (e.g. the CPU-time-to-instructions rate used when the dump carries
// no hardware counter).
type TraceImportOptions = trace.ImportOptions

// TraceImporter converts one foreign trace layout into a TraceProvider.
type TraceImporter = trace.Importer

// ImportTraces opens a foreign trace (an SST DUMPI ASCII dump, a TAU profile
// folder, or any format added with RegisterTraceImporter) as a provider.
// format names a registered importer; "" or "auto" sniffs the path against
// every importer. The result feeds the rest of the pipeline — validation,
// TIB compilation, replay — exactly like a native trace set.
func ImportTraces(format, path string, opts TraceImportOptions) (TraceProvider, error) {
	return trace.Import(format, path, opts)
}

// ImportCompileTraces imports a foreign trace and compiles it straight to a
// .tib file, returning the rank count: pay the foreign parse once, replay
// from the binary form ever after.
func ImportCompileTraces(format, path, tibPath string, opts TraceImportOptions) (int, error) {
	return trace.ImportCompile(format, path, tibPath, opts)
}

// RegisterTraceImporter makes a custom trace format importable by name (and
// by sniffing) in ImportTraces and Scenario.TraceFormat.
func RegisterTraceImporter(name string, sniff func(path string) bool, open func(path string, opts TraceImportOptions) (TraceProvider, error)) {
	trace.RegisterImporter(name, sniff, open)
}

// TraceImporters returns the sorted names of all registered trace importers.
func TraceImporters() []string { return trace.Importers() }

// SyntheticTraceMixes lists the synthetic generator names accepted by
// SyntheticMixTraces (and tracegen's -mix flag).
func SyntheticTraceMixes() []string { return trace.SyntheticMixes() }

// SyntheticMixTraces generates a small deterministic cross-rank-consistent
// trace set exercising the extended action vocabulary: "alltoallv" (uneven
// vector collectives) or "waitany" (nonblocking bursts drained out of
// order). bytes scales the payloads.
func SyntheticMixTraces(mix string, ranks, iters int, bytes float64) ([][]Action, error) {
	return trace.SyntheticMix(mix, ranks, iters, bytes)
}

// ValidateTraces checks cross-rank consistency (matched sends/receives,
// balanced collectives).
func ValidateTraces(p TraceProvider) error {
	return trace.Validate(p)
}

// CollectTraceStats summarizes the volumes of a trace; eagerThreshold
// classifies point-to-point messages (64 KiB in the paper).
func CollectTraceStats(p TraceProvider, eagerThreshold float64) (*TraceStats, error) {
	return trace.Collect(p, eagerThreshold)
}

// Replay runs the trace on the platform and returns the predicted time.
func Replay(prov TraceProvider, plat *Platform, cfg ReplayConfig) (*ReplayResult, error) {
	return core.Replay(prov, plat, cfg)
}

// NewLU builds an LU workload instance; iterations 0 selects the class
// default (250 for A/B/C).
func NewLU(class NPBClass, procs, iterations int) (*LU, error) {
	return npb.NewLU(class, procs, iterations)
}

// NewCG builds a CG workload instance.
func NewCG(class NPBClass, procs, iterations int) (*CG, error) {
	return npb.NewCG(class, procs, iterations)
}

// NewEP builds an EP workload instance.
func NewEP(class NPBClass, procs int) (*EP, error) {
	return npb.NewEP(class, procs)
}

// NewMG builds an MG workload instance.
func NewMG(class NPBClass, procs, iterations int) (*MG, error) {
	return npb.NewMG(class, procs, iterations)
}

// NewBT builds a BT workload instance; the process count must be a perfect
// square.
func NewBT(class NPBClass, procs, iterations int) (*BT, error) {
	return npb.NewBT(class, procs, iterations)
}

// NewSP builds an SP workload instance; the process count must be a perfect
// square.
func NewSP(class NPBClass, procs, iterations int) (*SP, error) {
	return npb.NewSP(class, procs, iterations)
}

// NewFT builds an FT workload instance; the process count must not exceed
// the class's smallest transpose dimension.
func NewFT(class NPBClass, procs, iterations int) (*FT, error) {
	return npb.NewFT(class, procs, iterations)
}

// PerfectTrace exposes a workload's exact action streams (what a
// distortion-free acquisition would record).
func PerfectTrace(w Workload) TraceProvider {
	return npb.AsProvider(w)
}

// AcquiredTrace exposes the trace an instrumented run of w would produce:
// compute volumes carry the counter inflation of the chosen
// instrumentation, exactly as in the paper's acquisition study.
func AcquiredTrace(w Workload, cfg AcquisitionConfig) (TraceProvider, error) {
	if cfg.Mode == instrument.None {
		return nil, fmt.Errorf("tireplay: acquisition requires an instrumented build")
	}
	return instrument.Acquired{W: w, Cfg: cfg}, nil
}

// Bordereau returns the emulated model of the paper's aging Opteron
// cluster.
func Bordereau() *GroundCluster { return ground.Bordereau() }

// Graphene returns the emulated model of the paper's Xeon cluster.
func Graphene() *GroundCluster { return ground.Graphene() }

// CalibrateClassic runs the first implementation's A-4 calibration and
// returns the measured instruction rate.
func CalibrateClassic(c *GroundCluster, iterations int) (float64, error) {
	return calibrate.ClassicA4(c, iterations)
}

// CalibrateCacheAware runs the cache-aware calibration of Section 3.4 for
// the given classes.
func CalibrateCacheAware(c *GroundCluster, classes []NPBClass, iterations int) (*CacheAwareCalibration, error) {
	return calibrate.NewCacheAware(c, classes, iterations)
}

// Materialize drains a provider into per-rank action slices (useful before
// WriteTraces). Large instances are better streamed; see TraceProvider.
func Materialize(p TraceProvider) ([][]Action, error) {
	out := make([][]Action, p.NumRanks())
	// Each rank is collected in one scratch slice, reused across ranks, and
	// kept as an exact-size copy, instead of growing each rank's own slice
	// through every intermediate size. Each action is decoded straight into
	// its slot.
	var scratch []Action
	for rank := range out {
		st, err := p.Rank(rank)
		if err != nil {
			return nil, err
		}
		scratch = scratch[:0]
		for {
			scratch = append(scratch, Action{})
			a := &scratch[len(scratch)-1]
			ok, err := st.Next(a)
			if err != nil {
				return nil, err
			}
			if !ok {
				scratch = scratch[:len(scratch)-1]
				break
			}
			if a.Volumes != nil {
				// The vector is the stream's until its next call.
				a.Volumes = slices.Clone(a.Volumes)
			}
		}
		if len(scratch) > 0 {
			out[rank] = make([]Action, len(scratch))
			copy(out[rank], scratch)
		}
	}
	return out, nil
}
