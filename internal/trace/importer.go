package trace

// Importer registry: the pluggable front door of the action pipeline. A
// trace acquired by a foreign toolchain (an SST DUMPI ASCII dump, a TAU
// profile folder) is folded into per-rank time-independent action streams by
// an Importer, after which the rest of the pipeline — validation, TIB
// compilation, replay — treats it exactly like a native trace set.

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// ImportOptions tunes how foreign volumes are mapped onto trace actions.
type ImportOptions struct {
	// InstructionRate converts CPU seconds into instruction volumes when the
	// dump carries no hardware instruction counter (the paper calibrates
	// this per machine; PAPI_TOT_INS deltas are used directly when present).
	// Zero selects DefaultInstructionRate.
	InstructionRate float64
}

// DefaultInstructionRate is the CPU-time-to-instructions conversion used
// when a dump has no instruction counter and the caller gives no rate:
// one giga-instruction per CPU second, the order of magnitude of the
// paper's calibrated machines.
const DefaultInstructionRate = 1e9

func (o ImportOptions) rate() float64 {
	if o.InstructionRate > 0 {
		return o.InstructionRate
	}
	return DefaultInstructionRate
}

// Importer converts one foreign trace layout into a trace Provider.
type Importer struct {
	// Name identifies the format ("dumpi", "tau").
	Name string
	// Sniff reports whether path (a file or directory) looks like this
	// format. It must be cheap: registry sniffing probes every importer.
	Sniff func(path string) bool
	// Open folds the foreign trace at path into per-rank action streams.
	Open func(path string, opts ImportOptions) (Provider, error)
	// checked marks the importers of this package, whose streams keep the
	// Stream contract themselves; Import wraps the providers of all others.
	checked bool
}

var (
	importerMu  sync.RWMutex
	importers   = make(map[string]Importer)
	importOrder []string
)

// RegisterImporter adds a trace importer to the registry. Importers
// self-register from init functions; registering a duplicate name panics.
// Import checks every action the importer's streams yield (see Stream).
func RegisterImporter(name string, sniff func(string) bool, open func(string, ImportOptions) (Provider, error)) {
	register(Importer{Name: name, Sniff: sniff, Open: open})
}

func register(imp Importer) {
	if imp.Name == "" || imp.Sniff == nil || imp.Open == nil {
		panic("trace: RegisterImporter with empty name or nil hooks")
	}
	importerMu.Lock()
	defer importerMu.Unlock()
	if _, dup := importers[imp.Name]; dup {
		panic(fmt.Sprintf("trace: importer %q registered twice", imp.Name))
	}
	importers[imp.Name] = imp
	importOrder = append(importOrder, imp.Name)
}

// Importers lists the registered importer names, sorted.
func Importers() []string {
	importerMu.RLock()
	defer importerMu.RUnlock()
	names := make([]string, 0, len(importers))
	for n := range importers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupImporter returns the importer registered under name.
func LookupImporter(name string) (Importer, bool) {
	importerMu.RLock()
	defer importerMu.RUnlock()
	imp, ok := importers[name]
	return imp, ok
}

// SniffImport probes every registered importer (in registration order) and
// returns the name of the first whose Sniff accepts path.
func SniffImport(path string) (string, bool) {
	importerMu.RLock()
	defer importerMu.RUnlock()
	for _, name := range importOrder {
		if importers[name].Sniff(path) {
			return name, true
		}
	}
	return "", false
}

// Import opens a foreign trace. format names a registered importer, or "" /
// "auto" to sniff the path against every importer.
func Import(format, path string, opts ImportOptions) (Provider, error) {
	if format == "" || format == "auto" {
		name, ok := SniffImport(path)
		if !ok {
			return nil, fmt.Errorf("trace: no registered importer recognizes %s (have %v)", path, Importers())
		}
		format = name
	}
	imp, ok := LookupImporter(format)
	if !ok {
		return nil, fmt.Errorf("trace: unknown trace format %q (have %v)", format, Importers())
	}
	p, err := imp.Open(path, opts)
	if err != nil || imp.checked {
		return p, err
	}
	return &checkedProvider{Provider: p, path: path}, nil
}

// checkedProvider holds the streams of an importer from outside this
// package to the Stream contract (see Checked).
type checkedProvider struct {
	Provider
	path string
}

// Rank implements Provider.
func (p *checkedProvider) Rank(rank int) (Stream, error) {
	st, err := p.Provider.Rank(rank)
	if err != nil {
		return nil, err
	}
	return Checked(st, p.path, rank, p.NumRanks()), nil
}

// Close closes the wrapped provider when it holds resources.
func (p *checkedProvider) Close() error {
	if c, ok := p.Provider.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Checked holds st, the stream of rank in a world of world ranks, to the
// Stream contract when its source does not check its actions itself: each
// action is checked with ValidateFor as it is yielded, and a rejected one
// is reported as a *TraceError naming path (when known), the rank and the
// action's index in the stream.
func Checked(st Stream, path string, rank, world int) Stream {
	return &checkedStream{st: st, path: path, rank: rank, world: world}
}

type checkedStream struct {
	st          Stream
	path        string
	rank, world int
	n           int // actions yielded
}

func (s *checkedStream) Next(a *Action) (bool, error) {
	ok, err := s.st.Next(a)
	if err != nil || !ok {
		return false, err
	}
	if err := a.ValidateFor(s.rank, s.world); err != nil {
		return false, &TraceError{Path: s.path, Rank: s.rank, Err: fmt.Errorf("action %d: %w", s.n, err)}
	}
	s.n++
	return true, nil
}

// Close closes the wrapped stream when it holds resources.
func (s *checkedStream) Close() error {
	if c, ok := s.st.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ImportCompile imports a foreign trace and compiles it straight to a .tib
// file — the ingestion path of `tireplay -import`: pay the foreign parse
// once, replay from the binary form ever after.
func ImportCompile(format, path, tibPath string, opts ImportOptions) (ranks int, err error) {
	p, err := Import(format, path, opts)
	if err != nil {
		return 0, err
	}
	if c, ok := p.(interface{ Close() error }); ok {
		defer c.Close()
	}
	if err := Compile(p, tibPath, [32]byte{}, 0); err != nil {
		return 0, err
	}
	return p.NumRanks(), nil
}
