package sweep

import (
	"bytes"
	"testing"
)

// fuzzMaxPoints bounds the grids FuzzSweepSpec expands, keeping each input
// cheap; Validate alone already caps a grid at maxPoints.
const fuzzMaxPoints = 64

// FuzzSweepSpec feeds arbitrary bytes to the strict sweep decoder, then
// validates and expands what decodes. The property is "structured error,
// or points that each carry a fingerprint and a validating scenario; never
// a panic": every expanded point sits at its index, its scenario passes
// Validate, and its fingerprint is the scenario's.
func FuzzSweepSpec(f *testing.F) {
	var grid bytes.Buffer
	if err := writeSpec(&grid, gridSpec()); err != nil {
		f.Fatal(err)
	}
	f.Add(grid.Bytes())
	for _, s := range []string{fileSweepJSON, typoedSpecJSON, typoedBaseJSON} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSpec(bytes.NewReader(data))
		if err != nil || s.Validate() != nil {
			return
		}
		n := 1
		for _, a := range s.Axes {
			if n *= len(a.Values); n > fuzzMaxPoints {
				return
			}
		}
		pts, err := s.Expand()
		if err != nil {
			return
		}
		for i, pt := range pts {
			if pt.Index != i || pt.Scenario == nil {
				t.Fatalf("point %d: index %d, scenario %v", i, pt.Index, pt.Scenario)
			}
			if err := pt.Scenario.Validate(); err != nil {
				t.Fatalf("point %d (%s) does not validate: %v", i, pt.Scenario.Name, err)
			}
			if fp, err := Fingerprint(pt.Scenario); err != nil || fp != pt.Fingerprint || fp == "" {
				t.Fatalf("point %d (%s): fingerprint %q, recomputed %q (%v)", i, pt.Scenario.Name, pt.Fingerprint, fp, err)
			}
		}
	})
}
