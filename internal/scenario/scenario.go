// Package scenario is the declarative layer over the replay engine: a
// Scenario is a JSON-serializable description of one simulation — target
// platform, trace source, backend, and model knobs — that can be validated,
// stored, shipped, and executed. It is the unit of work the batch runner
// (package runner) schedules, which is how the paper's large evaluation
// grids ({LU,CG} x classes x process counts x backends x platforms) are
// expressed in this codebase.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"tireplay/internal/core"
	"tireplay/internal/ground"
	"tireplay/internal/instrument"
	"tireplay/internal/mpi"
	"tireplay/internal/msgreplay"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sim"
	"tireplay/internal/trace"
)

// WorkloadSpec selects an NPB workload model as the trace source: the
// replay then consumes the workload's perfect (distortion-free) trace, or,
// with an AcquisitionSpec, the trace an instrumented run would record.
type WorkloadSpec struct {
	// Benchmark is "lu", "cg", "ep", "mg", "bt", "sp", or "ft".
	Benchmark string `json:"benchmark"`
	// Class is the NPB problem class letter ("S", "W", "A", "B", "C", "D").
	Class string `json:"class"`
	// Procs is the number of MPI processes.
	Procs int `json:"procs"`
	// Iterations reduces the iteration count (0 selects the class default
	// where the benchmark has one; EP ignores it).
	Iterations int `json:"iterations,omitempty"`
}

// Build materializes the workload model.
func (w *WorkloadSpec) Build() (npb.Workload, error) {
	class, err := npb.ParseClass(w.Class)
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(w.Benchmark) {
	case "lu":
		return npb.NewLU(class, w.Procs, w.Iterations)
	case "cg":
		return npb.NewCG(class, w.Procs, w.Iterations)
	case "ep":
		return npb.NewEP(class, w.Procs)
	case "mg":
		return npb.NewMG(class, w.Procs, w.Iterations)
	case "bt":
		return npb.NewBT(class, w.Procs, w.Iterations)
	case "sp":
		return npb.NewSP(class, w.Procs, w.Iterations)
	case "ft":
		return npb.NewFT(class, w.Procs, w.Iterations)
	default:
		return nil, fmt.Errorf("scenario: unknown benchmark %q (want lu, cg, ep, mg, bt, sp, or ft)", w.Benchmark)
	}
}

// AcquisitionSpec asks for the workload's *acquired* trace: the one an
// instrumented run would record, with the counter inflation of the chosen
// instrumentation mode (the paper's acquisition study, Sections 2.2/3.2).
type AcquisitionSpec struct {
	// Mode is "coarse", "minimal", or "fine".
	Mode string `json:"mode"`
	// Compile is "O0" or "O3" (a leading dash is accepted).
	Compile string `json:"compile"`
	// Cluster optionally names an emulated ground-truth cluster
	// ("bordereau" or "graphene") whose measured instrumentation costs and
	// -O3 factors parameterize the acquisition.
	Cluster string `json:"cluster,omitempty"`
}

func (a *AcquisitionSpec) config(class npb.Class) (instrument.Config, error) {
	var mode instrument.Mode
	switch strings.ToLower(a.Mode) {
	case "coarse":
		mode = instrument.Coarse
	case "minimal":
		mode = instrument.Minimal
	case "fine":
		mode = instrument.Fine
	default:
		return instrument.Config{}, fmt.Errorf("scenario: unknown instrumentation mode %q (want coarse, minimal, or fine)", a.Mode)
	}
	var compile instrument.Compile
	switch strings.TrimPrefix(strings.ToUpper(a.Compile), "-") {
	case "O0", "":
		compile = instrument.O0
	case "O3":
		compile = instrument.O3
	default:
		return instrument.Config{}, fmt.Errorf("scenario: unknown compile level %q (want O0 or O3)", a.Compile)
	}
	if a.Cluster == "" {
		return instrument.Config{Mode: mode, Compile: compile, Class: class}, nil
	}
	c, err := ground.Lookup(a.Cluster)
	if err != nil {
		return instrument.Config{}, err
	}
	return c.InstrConfig(mode, compile, class), nil
}

// Scenario is one declarative replay description, and every field of it is
// part of its JSON form. Exactly one platform source and exactly one trace
// source must be set. The zero knobs select the accurate defaults (SMPI
// backend, platform factors as network model). A caller that holds a built
// platform, provider or network model replays them with core.Replay.
type Scenario struct {
	// Name labels the scenario in results and observer events.
	Name string `json:"name,omitempty"`

	// Platform sources (exactly one):

	// Platform is an inline serializable platform description.
	Platform *platform.Spec `json:"platform,omitempty"`
	// PlatformFile is the path of a JSON platform description.
	PlatformFile string `json:"platform_file,omitempty"`

	// HostSpeed, when positive, overrides the platform's compute rate —
	// typically with a calibrated value (Sections 2.3/3.4).
	HostSpeed float64 `json:"host_speed,omitempty"`

	// Trace sources (exactly one):

	// TraceDesc is the path of a trace-description file.
	TraceDesc string `json:"trace_desc,omitempty"`
	// Workload generates the trace from an NPB workload model.
	Workload *WorkloadSpec `json:"workload,omitempty"`

	// Ranks is the rank count served from a merged (single-file) trace
	// description; 0 defaults to the platform's host count. Ignored for the
	// other sources.
	Ranks int `json:"ranks,omitempty"`

	// TraceCache controls the compiled binary trace cache for TraceDesc
	// sources. "auto" (the default) compiles the trace set into a sibling
	// .tib file keyed by the sources' mtime/size and replays from it,
	// falling back to text parsing if the cache cannot be built or read;
	// "on" requires the cache and fails otherwise; "off" always parses
	// text. A TraceDesc that already points at a .tib file is replayed
	// from it directly regardless of this knob.
	TraceCache string `json:"trace_cache,omitempty"`

	// TraceFormat selects a foreign trace importer for the TraceDesc path:
	// the name of a registered importer ("dumpi", "tau", ...), or "auto" to
	// sniff the format from the files. Empty means TraceDesc is a native
	// trace description (or .tib). Foreign dumps are converted in memory on
	// every run; compile them to .tib (tireplay -import -compile) for
	// repeated replays.
	TraceFormat string `json:"trace_format,omitempty"`

	// ImportRate converts CPU seconds into instruction volumes when an
	// imported dump carries no hardware instruction counter. Zero selects
	// the importer default (1e9). Only meaningful with TraceFormat.
	ImportRate float64 `json:"import_rate,omitempty"`

	// Acquisition, with Workload, replays the instrumented acquisition's
	// trace instead of the perfect one.
	Acquisition *AcquisitionSpec `json:"acquisition,omitempty"`

	// Backend names the replay backend, "smpi" or "msg"; "" selects SMPI.
	Backend string `json:"backend,omitempty"`
	// MPI configures the SMPI backend's communication model.
	MPI mpi.ModelConfig `json:"mpi,omitempty"`
	// MSG configures the legacy backend.
	MSG msgreplay.Config `json:"msg,omitempty"`

	// NoNetworkFactors suppresses the platform's piece-wise-linear factors
	// for this replay (the legacy MSG prototype was factor-free).
	NoNetworkFactors bool `json:"no_network_factors,omitempty"`

	// HostMapping maps rank i to host HostMapping[i] of the platform; empty
	// maps rank i to host i.
	HostMapping []int `json:"host_mapping,omitempty"`

	// ValidateTrace cross-validates the trace (matched sends/receives,
	// balanced collectives) before replaying.
	ValidateTrace bool `json:"validate_trace,omitempty"`
}

// Validate checks the scenario's structural consistency without touching
// the filesystem or building anything expensive.
func (s *Scenario) Validate() error {
	if (s.Platform != nil) == (s.PlatformFile != "") {
		return fmt.Errorf("scenario %s: want exactly one platform source (Platform or PlatformFile)", s.label())
	}
	if (s.TraceDesc != "") == (s.Workload != nil) {
		return fmt.Errorf("scenario %s: want exactly one trace source (TraceDesc or Workload)", s.label())
	}

	if s.Acquisition != nil {
		if s.Workload == nil {
			return fmt.Errorf("scenario %s: Acquisition requires a Workload trace source", s.label())
		}
		class, err := npb.ParseClass(s.Workload.Class)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.label(), err)
		}
		if _, err := s.Acquisition.config(class); err != nil {
			return fmt.Errorf("scenario %s: %w", s.label(), err)
		}
	}
	if s.Workload != nil {
		if s.Workload.Procs <= 0 {
			return fmt.Errorf("scenario %s: workload needs a positive process count, got %d", s.label(), s.Workload.Procs)
		}
		if _, err := npb.ParseClass(s.Workload.Class); err != nil {
			return fmt.Errorf("scenario %s: %w", s.label(), err)
		}
		switch strings.ToLower(s.Workload.Benchmark) {
		case "lu", "cg", "ep", "mg", "bt", "sp", "ft":
		default:
			return fmt.Errorf("scenario %s: unknown benchmark %q (want lu, cg, ep, mg, bt, sp, or ft)", s.label(), s.Workload.Benchmark)
		}
	}

	if _, err := core.Lookup(s.Backend); err != nil {
		return fmt.Errorf("scenario %s: %w", s.label(), err)
	}

	switch strings.ToLower(s.TraceCache) {
	case "", "auto", "on", "off":
	default:
		return fmt.Errorf("scenario %s: unknown trace cache mode %q (want auto, on, or off)", s.label(), s.TraceCache)
	}
	if s.TraceCache != "" && s.TraceDesc == "" {
		return fmt.Errorf("scenario %s: TraceCache requires a TraceDesc trace source", s.label())
	}

	if s.TraceFormat != "" {
		if s.TraceDesc == "" {
			return fmt.Errorf("scenario %s: TraceFormat requires a TraceDesc trace source", s.label())
		}
		if name := strings.ToLower(s.TraceFormat); name != "auto" {
			if _, ok := trace.LookupImporter(name); !ok {
				return fmt.Errorf("scenario %s: unknown trace format %q (registered: %v)", s.label(), s.TraceFormat, trace.Importers())
			}
		}
	}
	if s.ImportRate < 0 {
		return fmt.Errorf("scenario %s: negative import rate %g", s.label(), s.ImportRate)
	}
	if s.ImportRate > 0 && s.TraceFormat == "" {
		return fmt.Errorf("scenario %s: ImportRate is only meaningful with TraceFormat", s.label())
	}

	for i, h := range s.HostMapping {
		if h < 0 {
			return fmt.Errorf("scenario %s: host mapping entry %d is negative (%d)", s.label(), i, h)
		}
	}
	if s.HostSpeed < 0 {
		return fmt.Errorf("scenario %s: negative host speed %g", s.label(), s.HostSpeed)
	}
	return nil
}

func (s *Scenario) label() string {
	if s.Name != "" {
		return fmt.Sprintf("%q", s.Name)
	}
	return "(unnamed)"
}

// buildPlatform materializes the platform source and its piece-wise network
// model (nil when the source has no factors).
func (s *Scenario) buildPlatform() (*platform.Platform, sim.NetworkModel, error) {
	if s.Platform != nil {
		return s.Platform.Build()
	}
	spec, err := platform.LoadSpec(s.PlatformFile)
	if err != nil {
		return nil, nil, err
	}
	return spec.Build()
}

// provider materializes the trace source. defaultRanks is the merged-trace
// rank count used when Ranks is unset (TraceDesc source only) — the
// platform's host count, matching how smpirun infers -np from the hostfile.
// Every provider is opened here, so Run closes any that is an io.Closer.
func (s *Scenario) provider(defaultRanks int) (trace.Provider, error) {
	if s.Workload != nil {
		w, err := s.Workload.Build()
		if err != nil {
			return nil, err
		}
		if s.Acquisition == nil {
			return npb.AsProvider(w), nil
		}
		class, err := npb.ParseClass(s.Workload.Class)
		if err != nil {
			return nil, err
		}
		cfg, err := s.Acquisition.config(class)
		if err != nil {
			return nil, err
		}
		return instrument.Acquired{W: w, Cfg: cfg}, nil
	}
	if s.TraceFormat != "" {
		return trace.Import(strings.ToLower(s.TraceFormat), s.TraceDesc,
			trace.ImportOptions{InstructionRate: s.ImportRate})
	}
	// Each concrete provider is returned through its own error check: a
	// nil *CompiledProvider or *FileProvider must not become a non-nil
	// trace.Provider.
	ranks := s.Ranks
	if ranks == 0 {
		ranks = defaultRanks
	}
	if trace.SniffTIB(s.TraceDesc) {
		p, err := trace.OpenTIB(s.TraceDesc)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	mode := strings.ToLower(s.TraceCache)
	if mode != "off" {
		p, err := trace.OpenDescriptionCached(s.TraceDesc, ranks)
		if err == nil {
			return p, nil
		}
		if mode == "on" {
			return nil, err
		}
		// "auto": fall back to parsing the text.
	}
	p, err := trace.LoadDescription(s.TraceDesc, ranks)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// CompileTraceCache ensures the scenario's compiled binary trace cache (a
// sibling .tib of its TraceDesc) exists and is fresh, without replaying.
// It is a no-op (returning "", false, nil) when the scenario has no
// cacheable source: TraceCache "off", a TraceDesc already pointing at a
// .tib, or a Workload source. The sweep layer calls it once per
// distinct trace set before fanning a grid onto the worker pool, so the
// scenarios of a sweep share one compile instead of racing to rebuild the
// same cache concurrently.
func (s *Scenario) CompileTraceCache() (tibPath string, rebuilt bool, err error) {
	if s.TraceDesc == "" || s.TraceFormat != "" || strings.ToLower(s.TraceCache) == "off" || trace.SniffTIB(s.TraceDesc) {
		return "", false, nil
	}
	ranks := s.Ranks
	if ranks == 0 {
		plat, _, err := s.buildPlatform()
		if err != nil {
			return "", false, err
		}
		ranks = plat.Size()
	}
	return trace.CompileDescription(s.TraceDesc, ranks)
}

// Run validates and executes the scenario. Cancellation is checked before
// the (single-threaded, typically sub-second) replay starts; a ctx that
// expires mid-replay does not interrupt it.
func (s *Scenario) Run(ctx context.Context) (*core.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	plat, model, err := s.buildPlatform()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: building platform: %w", s.label(), err)
	}
	if s.HostSpeed > 0 {
		plat.SetSpeed(s.HostSpeed)
	}

	prov, err := s.provider(plat.Size())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: building trace source: %w", s.label(), err)
	}
	if c, ok := prov.(io.Closer); ok {
		// A compiled .tib provider holds a file descriptor.
		defer c.Close()
	}
	if s.ValidateTrace {
		if err := trace.Validate(prov); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.label(), err)
		}
	}

	cfg := core.Config{Backend: s.Backend, MPI: s.MPI, MSG: s.MSG}
	if !s.NoNetworkFactors {
		cfg.Network = model
	}
	if len(s.HostMapping) > 0 {
		all := plat.Hosts()
		hosts := make([]*sim.Host, len(s.HostMapping))
		for i, h := range s.HostMapping {
			if h >= len(all) {
				return nil, fmt.Errorf("scenario %s: host mapping entry %d (%d) out of range [0,%d)", s.label(), i, h, len(all))
			}
			hosts[i] = all[h]
		}
		cfg.Hosts = hosts
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.Replay(prov, plat, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.label(), err)
	}
	return res, nil
}

// ReadAll strictly decodes a JSON array of non-null scenarios from r.
func ReadAll(r io.Reader) ([]*Scenario, error) {
	var out []*Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("scenario: decoding: %w", err)
	}
	for i, s := range out {
		if s == nil {
			return nil, fmt.Errorf("scenario: decoding: entry %d is null", i)
		}
	}
	return out, nil
}

// Load reads a JSON scenario array from a file.
func Load(path string) ([]*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}
