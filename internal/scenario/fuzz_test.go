package scenario

import (
	"bytes"
	"testing"
)

// FuzzScenarioJSON feeds arbitrary bytes to the strict scenario decoder. The
// property is "structured error or valid result, never a panic": ReadAll
// either fails, or returns only non-nil scenarios whose Validate returns
// (with or without an error).
func FuzzScenarioJSON(f *testing.F) {
	f.Add([]byte(quickBatchJSON))
	for _, tc := range typoedFields {
		f.Add([]byte(tc.json))
	}
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[{"goroutine_procs": true}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		scenarios, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range scenarios {
			if s == nil {
				t.Fatalf("entry %d decoded to a nil scenario", i)
			}
			_ = s.Validate()
		}
	})
}
