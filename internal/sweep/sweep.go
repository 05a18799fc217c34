// Package sweep is the declarative grid layer over the batch runner: a
// Sweep is a JSON-serializable specification of a whole parameter study —
// a base Scenario template plus named axes whose cartesian product expands
// into concrete scenarios. The paper's entire evaluation is such a grid
// ({LU, CG} x classes x process counts x backends x platforms), and so are
// the dimensioning studies the introduction motivates; this package turns
// the hand-written nested loops those used to require into a spec that can
// be stored, shipped, diffed, resumed, and streamed.
//
// Every expanded point carries a deterministic fingerprint (SHA-256 of the
// scenario's canonical JSON, display name excluded), which keys the
// persistent result store: re-running an edited or interrupted sweep
// replays only the points whose scenarios are not already on disk, the
// same way the compiled trace cache makes re-ingestion free.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tireplay/internal/scenario"
)

// Axis is one named parameter dimension of a sweep. Each value produces
// one slice of the grid along this axis.
//
// A scalar (or array) value is assigned to the scenario field addressed by
// Path — a dotted JSON field path such as "workload.procs", "backend", or
// "platform.speed" (Path defaults to Name). An object value instead
// assigns several fields together: each of its keys is a dotted path, so
// one axis can vary coupled knobs, e.g.
//
//	{"name": "procs", "values": [
//	  {"workload.procs": 8,  "platform.hosts": 8},
//	  {"workload.procs": 16, "platform.hosts": 16}]}
//
// (To assign a whole object to one field, use the object form with a
// single key: {"mpi": {...}}.)
type Axis struct {
	// Name identifies the axis in skip constraints, name templates, and
	// result records. Names must be unique within a sweep.
	Name string `json:"name"`
	// Path is the dotted JSON field path scalar values are assigned to;
	// empty selects Name. Ignored for object values.
	Path string `json:"path,omitempty"`
	// Values are the axis's parameter values, in grid order.
	Values []any `json:"values"`
	// Labels optionally names each value for display (scenario names, CSV
	// columns, skip constraints); must match Values in length when set.
	// The default label is the value's compact rendering.
	Labels []string `json:"labels,omitempty"`
}

// label returns the display label of the axis's i-th value.
func (a *Axis) label(i int) string {
	if len(a.Labels) > 0 {
		return a.Labels[i]
	}
	return valueLabel(a.Values[i])
}

func valueLabel(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case bool:
		return strconv.FormatBool(x)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		return string(b)
	}
}

// Sweep is a declarative, JSON-serializable parameter grid: a base
// scenario template plus axes expanded as a cartesian product (first axis
// slowest, last axis fastest — the order of equivalent nested loops).
type Sweep struct {
	// Name labels the sweep in result records.
	Name string `json:"name,omitempty"`
	// Base is the scenario template every grid point starts from.
	Base scenario.Scenario `json:"base"`
	// Axes are the parameter dimensions; an empty list expands to the base
	// scenario alone.
	Axes []Axis `json:"axes,omitempty"`
	// Skip drops grid points: a point is skipped when every entry of any
	// one map matches, comparing the point's value label for the named
	// axis, e.g. {"backend": "msg", "class": "D"}.
	Skip []map[string]string `json:"skip,omitempty"`
	// NameFormat names expanded scenarios: every "{axis}" placeholder is
	// replaced by that axis's value label, e.g. "{bench} {class}-{procs}".
	// Empty selects the base name and the axis labels joined with "/".
	NameFormat string `json:"name_format,omitempty"`
	// Store is the result-store directory results persist to (and resume
	// from); empty means no persistence.
	Store string `json:"store,omitempty"`
	// Resume controls the result store, mirroring Scenario.TraceCache:
	// "auto" (the default) reuses completed results when a store is
	// configured; "on" requires a store and fails without one; "off"
	// re-runs every point, overwriting stored results.
	Resume string `json:"resume,omitempty"`
}

// Point is one expanded grid point: a concrete scenario plus the axis
// values that produced it.
type Point struct {
	// Index is the point's position in the expanded grid (deterministic:
	// same spec, same order).
	Index int
	// Values and Labels record each axis's value and display label.
	Values map[string]any
	Labels map[string]string
	// Scenario is the concrete, validated scenario.
	Scenario *scenario.Scenario
	// Fingerprint is the hex SHA-256 of the scenario's canonical JSON with
	// the display name cleared — it identifies the replay work, not its
	// label, and keys the result store.
	Fingerprint string
}

// maxPoints bounds runaway grids (a typo multiplying axes) to fail loudly
// instead of expanding forever.
const maxPoints = 1 << 20

// Validate checks the sweep's structural consistency without expanding it.
func (s *Sweep) Validate() error {
	switch strings.ToLower(s.Resume) {
	case "", "auto", "on", "off":
	default:
		return fmt.Errorf("sweep %s: unknown resume mode %q (want auto, on, or off)", s.label(), s.Resume)
	}
	seen := make(map[string]bool, len(s.Axes))
	total := 1
	for i := range s.Axes {
		a := &s.Axes[i]
		if a.Name == "" {
			return fmt.Errorf("sweep %s: axis %d has no name", s.label(), i)
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep %s: duplicate axis %q", s.label(), a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep %s: axis %q has no values", s.label(), a.Name)
		}
		if len(a.Labels) > 0 && len(a.Labels) != len(a.Values) {
			return fmt.Errorf("sweep %s: axis %q has %d labels for %d values", s.label(), a.Name, len(a.Labels), len(a.Values))
		}
		if total > maxPoints/len(a.Values) {
			return fmt.Errorf("sweep %s: grid exceeds %d points", s.label(), maxPoints)
		}
		total *= len(a.Values)
	}
	for _, skip := range s.Skip {
		for name := range skip {
			if !seen[name] {
				return fmt.Errorf("sweep %s: skip constraint names unknown axis %q", s.label(), name)
			}
		}
	}
	if s.NameFormat != "" {
		for _, m := range placeholderRe.FindAllStringSubmatch(s.NameFormat, -1) {
			if !seen[m[1]] {
				return fmt.Errorf("sweep %s: name format placeholder {%s} names no axis", s.label(), m[1])
			}
		}
	}
	return nil
}

var placeholderRe = regexp.MustCompile(`\{([^{}]+)\}`)

func (s *Sweep) label() string {
	if s.Name != "" {
		return fmt.Sprintf("%q", s.Name)
	}
	return "(unnamed)"
}

// Expand materializes the grid: the cartesian product of the axes over the
// base template, minus skipped points, each strictly decoded, named,
// validated, and fingerprinted. Expansion is deterministic — the same spec
// yields the same scenarios in the same order with the same fingerprints.
func (s *Sweep) Expand() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	baseDoc, err := json.Marshal(&s.Base)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: encoding base scenario: %w", s.label(), err)
	}

	var points []Point
	idx := make([]int, len(s.Axes))
	for {
		pt, err := s.expandPoint(baseDoc, idx, len(points))
		if err != nil {
			return nil, err
		}
		if pt != nil {
			points = append(points, *pt)
		}
		// Odometer: last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return points, nil
}

// expandPoint builds the grid point selected by idx, or nil if a skip
// constraint drops it. pointIndex is its position among kept points.
func (s *Sweep) expandPoint(baseDoc []byte, idx []int, pointIndex int) (*Point, error) {
	labels := make(map[string]string, len(s.Axes))
	values := make(map[string]any, len(s.Axes))
	for ai := range s.Axes {
		a := &s.Axes[ai]
		labels[a.Name] = a.label(idx[ai])
		values[a.Name] = a.Values[idx[ai]]
	}
	for _, skip := range s.Skip {
		match := len(skip) > 0
		for name, want := range skip {
			if labels[name] != want {
				match = false
				break
			}
		}
		if match {
			return nil, nil
		}
	}

	// Fresh deep copy of the base document for this point.
	var doc map[string]any
	if err := json.Unmarshal(baseDoc, &doc); err != nil {
		return nil, fmt.Errorf("sweep %s: decoding base scenario: %w", s.label(), err)
	}
	if doc == nil {
		doc = make(map[string]any)
	}
	for ai := range s.Axes {
		a := &s.Axes[ai]
		if err := applyAxisValue(doc, a, a.Values[idx[ai]]); err != nil {
			return nil, fmt.Errorf("sweep %s: axis %q: %w", s.label(), a.Name, err)
		}
	}

	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: encoding point: %w", s.label(), err)
	}
	sc := new(scenario.Scenario)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sc); err != nil {
		// A typoed axis path lands here as an unknown JSON field; the
		// decoder's error names it.
		return nil, fmt.Errorf("sweep %s: point %s: %w", s.label(), pointLabel(s.Axes, labels), err)
	}
	sc.Name = s.pointName(labels)
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("sweep %s: point %s: %w", s.label(), pointLabel(s.Axes, labels), err)
	}
	fp, err := Fingerprint(sc)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: point %s: %w", s.label(), pointLabel(s.Axes, labels), err)
	}
	return &Point{
		Index:       pointIndex,
		Values:      values,
		Labels:      labels,
		Scenario:    sc,
		Fingerprint: fp,
	}, nil
}

func pointLabel(axes []Axis, labels map[string]string) string {
	parts := make([]string, 0, len(axes))
	for i := range axes {
		parts = append(parts, axes[i].Name+"="+labels[axes[i].Name])
	}
	if len(parts) == 0 {
		return "(base)"
	}
	return strings.Join(parts, " ")
}

// pointName renders the scenario name for a grid point.
func (s *Sweep) pointName(labels map[string]string) string {
	if s.NameFormat != "" {
		return placeholderRe.ReplaceAllStringFunc(s.NameFormat, func(m string) string {
			return labels[m[1:len(m)-1]]
		})
	}
	parts := make([]string, 0, len(s.Axes)+1)
	if s.Base.Name != "" {
		parts = append(parts, s.Base.Name)
	}
	for i := range s.Axes {
		parts = append(parts, labels[s.Axes[i].Name])
	}
	return strings.Join(parts, "/")
}

// applyAxisValue writes one axis value into the point's JSON document.
func applyAxisValue(doc map[string]any, a *Axis, v any) error {
	if obj, ok := v.(map[string]any); ok {
		// Object form: each key is a dotted path. Apply in sorted order so
		// conflicting paths resolve deterministically.
		paths := make([]string, 0, len(obj))
		for p := range obj {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if err := assignPath(doc, p, obj[p]); err != nil {
				return err
			}
		}
		return nil
	}
	path := a.Path
	if path == "" {
		path = a.Name
	}
	return assignPath(doc, path, v)
}

// assignPath sets doc's field at a dotted path, creating intermediate
// objects as needed.
func assignPath(doc map[string]any, path string, v any) error {
	if path == "" {
		return fmt.Errorf("empty field path")
	}
	parts := strings.Split(path, ".")
	cur := doc
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			m := make(map[string]any)
			cur[p] = m
			cur = m
			continue
		}
		m, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path %q: field %q is not an object", path, p)
		}
		cur = m
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// Fingerprint returns the hex SHA-256 of the scenario's canonical JSON
// with the display name cleared: two points with the same replay-relevant
// knobs share a fingerprint even under different names.
func Fingerprint(sc *scenario.Scenario) (string, error) {
	c := *sc
	c.Name = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ReadSpec strictly decodes a JSON Sweep from r: unknown fields anywhere
// in the spec — a typoed knob in the base scenario, a misspelled axis key
// — fail with an error naming the offending field instead of silently
// selecting defaults.
func ReadSpec(r io.Reader) (*Sweep, error) {
	var s Sweep
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: decoding spec: %w", err)
	}
	return &s, nil
}

// Load reads a JSON Sweep spec from a file.
func Load(path string) (*Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
