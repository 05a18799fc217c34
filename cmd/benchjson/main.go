// Command benchjson converts `go test -bench` output read from stdin into
// a JSON document mapping each benchmark (qualified by its package, so
// names never collide across packages) to its measured metrics. CI pipes
// the benchmark run through it to produce the BENCH_ci.json artifact that
// records the performance trajectory per commit:
//
//	go test -bench . -benchtime=3x -count=3 -run '^$' ./... | benchjson > BENCH_ci.json
//
// When a benchmark appears several times (`-count=N`), the runs are
// reduced to their per-metric median, which is what makes a ratio gate
// usable on noisy shared runners.
//
// With -compare FILE it instead prints a ns/op ratio table of the current
// run against a previously produced JSON document (the committed
// BENCH_baseline.json). The comparison becomes a CI gate with -max-ratio
// (ns/op) and -max-alloc-ratio (allocs/op): any benchmark regressing past
// its threshold makes benchjson exit non-zero; a benchmark whose baseline
// allocates nothing fails the allocs/op gate as soon as it allocates at
// all. -min-ns exempts benchmarks whose baseline is too fast to time
// reliably from the ns/op gate (their allocs/op, which is deterministic,
// stays gated). -summary FILE appends the table as GitHub-flavored
// markdown, for $GITHUB_STEP_SUMMARY.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics are the per-benchmark measurements. Zero-valued fields were not
// reported by the run (B/op and allocs/op need -benchmem or ReportAllocs).
type Metrics struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Procs is the GOMAXPROCS suffix go test appends to the name; it is
	// stripped from the JSON key so keys stay joinable across commits even
	// when runner core counts change.
	Procs int `json:"procs,omitempty"`
}

func main() {
	compareWith := flag.String("compare", "", "baseline JSON file: print ns/op ratios instead of JSON")
	maxRatio := flag.Float64("max-ratio", 0, "with -compare: fail when current/baseline ns/op exceeds this (0 = no gate)")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 0, "with -compare: fail when current/baseline allocs/op exceeds this (0 = no gate)")
	minNs := flag.Float64("min-ns", 0, "with -compare: exempt benchmarks whose baseline ns/op is below this from the ns/op gate")
	summary := flag.String("summary", "", "with -compare: append the ratio table as markdown to this file")
	flag.Parse()

	runs := make(map[string][]Metrics)
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, m, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		runs[name] = append(runs[name], m)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	results := make(map[string]Metrics, len(runs))
	for name, rs := range runs {
		results[name] = reduceRuns(rs)
	}

	if *compareWith != "" {
		gate := gateConfig{maxRatio: *maxRatio, maxAllocRatio: *maxAllocRatio, minNs: *minNs, summaryPath: *summary}
		breaches, err := compare(results, *compareWith, gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if breaches > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past the gate\n", breaches)
			os.Exit(1)
		}
		return
	}

	// encoding/json sorts map keys, so artifact diffs stay readable
	// across commits.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// reduceRuns collapses repeated runs of one benchmark (-count=N) into a
// single Metrics value by taking the median of every metric independently.
// The median, unlike the mean, shrugs off the occasional run where a shared
// CI runner stalled — which is what makes a ratio gate non-flaky.
func reduceRuns(rs []Metrics) Metrics {
	if len(rs) == 1 {
		return rs[0]
	}
	pick := func(f func(Metrics) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return Metrics{
		Iterations:  int64(pick(func(m Metrics) float64 { return float64(m.Iterations) })),
		NsPerOp:     pick(func(m Metrics) float64 { return m.NsPerOp }),
		BPerOp:      pick(func(m Metrics) float64 { return m.BPerOp }),
		AllocsPerOp: pick(func(m Metrics) float64 { return m.AllocsPerOp }),
		MBPerS:      pick(func(m Metrics) float64 { return m.MBPerS }),
		Procs:       rs[0].Procs,
	}
}

// gateConfig holds the regression thresholds for compare.
type gateConfig struct {
	maxRatio      float64 // ns/op threshold, 0 = no gate
	maxAllocRatio float64 // allocs/op threshold, 0 = no gate
	minNs         float64 // baselines faster than this skip the ns/op gate
	summaryPath   string  // markdown table destination, "" = none
}

// row is one line of the comparison table.
type row struct {
	name       string
	cur, base  Metrics
	hasBase    bool
	gone       bool
	nsRatio    float64
	allocRatio float64
	verdict    string // "ok", "FAIL", "new", "gone", or "skip" (below -min-ns)
}

// compare builds a current-vs-baseline table for every benchmark present in
// either run, prints it, optionally appends a markdown rendering to the
// summary file, and returns how many benchmarks breached a gate.
func compare(current map[string]Metrics, baselinePath string, gate gateConfig) (int, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	baseline := make(map[string]Metrics)
	if err := json.Unmarshal(data, &baseline); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []row
	breaches := 0
	for _, name := range names {
		r := row{name: name, cur: current[name]}
		if base, ok := baseline[name]; ok {
			r.hasBase = true
			r.base = base
			if base.NsPerOp > 0 {
				r.nsRatio = r.cur.NsPerOp / base.NsPerOp
			}
			if base.AllocsPerOp > 0 {
				r.allocRatio = r.cur.AllocsPerOp / base.AllocsPerOp
			} else if r.cur.AllocsPerOp > 0 {
				// No ratio bounds growth from an allocation-free
				// baseline: any allocation breaches the gate.
				r.allocRatio = math.Inf(1)
			}
			r.verdict = "ok"
			if base.NsPerOp < gate.minNs {
				r.verdict = "skip"
			} else if gate.maxRatio > 0 && r.nsRatio > gate.maxRatio {
				r.verdict = "FAIL"
			}
			if gate.maxAllocRatio > 0 && r.allocRatio > gate.maxAllocRatio {
				r.verdict = "FAIL"
			}
			if r.verdict == "FAIL" {
				breaches++
			}
		} else {
			r.verdict = "new"
		}
		rows = append(rows, r)
	}
	var gone []string
	for name := range baseline {
		if _, ok := current[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		rows = append(rows, row{name: name, base: baseline[name], hasBase: true, gone: true, verdict: "gone"})
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-70s %14s %14s %7s %7s %5s\n",
		"benchmark", "current ns/op", "baseline ns/op", "ns", "allocs", "gate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-70s %14s %14s %7s %7s %5s\n",
			r.name, fmtNs(r.cur.NsPerOp, r.gone), fmtNs(r.base.NsPerOp, !r.hasBase),
			fmtRatio(r.nsRatio), fmtRatio(r.allocRatio), r.verdict)
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if gate.summaryPath != "" {
		if err := writeMarkdown(gate.summaryPath, rows, gate); err != nil {
			return 0, err
		}
	}
	return breaches, nil
}

func fmtNs(v float64, missing bool) string {
	if missing {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

func fmtRatio(r float64) string {
	if r == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", r)
}

// writeMarkdown appends the comparison as a GFM table, the shape GitHub
// renders in a job's step summary.
func writeMarkdown(path string, rows []row, gate gateConfig) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "### Benchmark ratios vs baseline\n\n")
	if gate.maxRatio > 0 || gate.maxAllocRatio > 0 {
		fmt.Fprintf(w, "Gate: ns/op ≤ %.2fx, allocs/op ≤ %.2fx (ns/op gate skipped below %.0f ns baseline).\n\n",
			gate.maxRatio, gate.maxAllocRatio, gate.minNs)
	}
	fmt.Fprintln(w, "| benchmark | current ns/op | baseline ns/op | ns ratio | allocs ratio | gate |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|:---:|")
	for _, r := range rows {
		verdict := r.verdict
		if verdict == "FAIL" {
			verdict = "❌ FAIL"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			r.name, fmtNs(r.cur.NsPerOp, r.gone), fmtNs(r.base.NsPerOp, !r.hasBase),
			fmtRatio(r.nsRatio), fmtRatio(r.allocRatio), verdict)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkTIBDecode-8  34534  69603 ns/op  244.24 MB/s  18496 B/op  2 allocs/op
func parseBenchLine(line string) (string, Metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Metrics{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Metrics{}, false
	}
	name := fields[0]
	procs := 0
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	m := Metrics{Iterations: iters, Procs: procs}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Metrics{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp, seen = v, true
		case "B/op":
			m.BPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		case "MB/s":
			m.MBPerS = v
		}
	}
	return name, m, seen
}
