// Command perfbench is the repository benchmark. It generates a seeded
// time-independent trace set for one workload, writes it as text (and
// compiles it to TIB where the workload replays the binary form), then
// replays it through the public tireplay API for a fixed wall-clock budget,
// checking every replay against a reference. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are end to end: the host CPU time one replay
// takes through Scenario.Run, as the 10th percentile over the run's
// replays, and the median host CPU time of building the inputs (set-up).
// Both are corrected for host speed with a fixed reference kernel timed
// right after each measurement (see refKernel and kernelSeconds). Times are
// process CPU time, not wall time, so that time the host gives to other
// programs does not count. Every replay does identical work, so their
// spread is host noise, not the program's: a shared host runs in episodes
// of a few seconds at up to 1.7 times its usual CPU time, which the kernel
// cancels only in part. The 10th percentile is the replay on an uncontended
// host; it still has dozens of replays beyond it and read steadier from run
// to run than the median or the 90th percentile. With -trace 1 each replay
// is split into spans
// around the calls into each layer (platform build, trace ingestion,
// engine), a CPU profile attributes the host time to layers, and the
// engine's own counters are reported.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload lu --seed 1 --seconds 10 --trace 0
//
// run.py builds this package inside the checkout; the program writes its
// scratch files under .bench_build and removes them before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"tireplay"
)

// setupRuns is how many times the inputs are built; setup_s is the median.
const setupRuns = 21

// minReplays guarantees a few samples even with a tiny -seconds.
const minReplays = 5

// warmup is how long replays run untimed before measuring.
const warmup = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	// A replay runs on one goroutine. With a second processor idle, the
	// garbage collector's idle-time mark workers would burn it for as long
	// as it stays idle, and process CPU time would count that as replay
	// cost.
	runtime.GOMAXPROCS(1)

	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	var res *result
	if err == nil {
		res, err = run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// inputs is one built trace set.
type inputs struct {
	desc    string  // text trace description
	ranks   int     // rank count
	actions int64   // actions generated
	minTime float64 // compute-only lower bound on the simulated time
}

// buildInputs generates the workload's trace set in dir: the set-up a user
// pays once per acquisition (model generation, text write, TIB compile).
func buildInputs(w workload, seed uint64, dir string) (inputs, error) {
	perRank, err := w.traces()
	if err != nil {
		return inputs{}, err
	}
	maxInstr := jitter(perRank, seed)
	desc, err := tireplay.WriteTraces(dir, "bench", perRank)
	if err != nil {
		return inputs{}, err
	}
	if w.cache == "on" {
		if _, _, err := tireplay.CompileTraces(desc, len(perRank)); err != nil {
			return inputs{}, err
		}
	}
	return inputs{desc: desc, ranks: len(perRank), actions: countActions(perRank),
		minTime: maxInstr / w.platform.Speed}, nil
}

func run(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in, err := buildInputs(w, seed, filepath.Join(work, "traces"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := reference(w, in)
	if err != nil {
		return nil, err
	}
	spec := w.platform
	sc := &tireplay.Scenario{
		Name:       "bench",
		Platform:   &spec,
		TraceDesc:  in.desc,
		TraceCache: w.cache,
		Backend:    w.backend,
	}
	// Warm up: the first replays of a process run on a small heap and cold
	// caches, which a steady stream of replays does not pay.
	for start := time.Now(); time.Since(start) < warmup; {
		if _, err := sc.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if traced {
		return res, measureLayers(w, in, ref, budget, res)
	}
	// The set-up runs are spread evenly over the measurement so that they
	// meet the same host conditions as the replays.
	scratch := filepath.Join(work, "setup")
	var setup, replay []float64
	var kernel refKernel
	for start := time.Now(); res.more(start, budget); {
		if len(setup) < setupRuns && time.Since(start) >= time.Duration(len(setup))*budget/setupRuns {
			d, err := timeSetup(w, seed, scratch, &kernel)
			if err != nil {
				return nil, err
			}
			setup = append(setup, d)
		}
		c0 := cpuNow()
		collect()
		r, err := sc.Run(context.Background())
		d := kernel.scale(cpuNow() - c0)
		if res.check(r, err, ref) {
			replay = append(replay, d)
		}
	}
	for len(setup) < setupRuns {
		d, err := timeSetup(w, seed, scratch, &kernel)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}
	if len(replay) > 0 {
		res.Metrics["replay_p10_ms"] = metric{1e3 * quantile(replay, 0.1), "ms"}
		res.Metrics["setup_s"] = metric{quantile(setup, 0.5), "s"}
	}
	return res, nil
}

// timeSetup builds the inputs again in an emptied dir, starting from a
// collected heap, and returns the build's CPU seconds, corrected for host
// speed by kernel.
func timeSetup(w workload, seed uint64, dir string, kernel *refKernel) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	collect()
	c0 := cpuNow()
	if _, err := buildInputs(w, seed, dir); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return kernel.scale(cpuNow() - c0), nil
}

// kernelSeconds is the CPU time of one refKernel pass on the host the
// benchmark was tuned on (a two-vCPU Intel Xeon virtual machine) when
// uncontended. Reported times are CPU times multiplied by kernelSeconds
// over the kernel's CPU time measured right after them: seconds on a host
// of that speed.
const kernelSeconds = 0.007

// refKernel is a fixed unit of host work that shares no code with the
// program: sorting 64Ki pseudo-random floats and hashing some of them. The
// speed of a shared host drifts by tens of percent within seconds, and by
// more between runs; dividing a measured CPU time by the kernel's CPU time
// right after it cancels most of that drift.
type refKernel struct {
	data   []float64
	counts map[int]int
}

// run refills the kernel's input and returns the CPU time of one pass.
func (k *refKernel) run() time.Duration {
	if k.data == nil {
		k.data = make([]float64, 1<<16)
		k.counts = make(map[int]int, 5000)
	}
	x := uint64(12345)
	for i := range k.data {
		x = x*6364136223846793005 + 1442695040888963407
		k.data[i] = float64(x >> 11)
	}
	clear(k.counts)
	c0 := cpuNow()
	slices.Sort(k.data)
	for i, v := range k.data[:20000] {
		k.counts[int(v)%5000] += i
	}
	return cpuNow() - c0
}

// scale returns the CPU time d, just measured, in seconds on the host that
// kernelSeconds describes.
func (k *refKernel) scale(d time.Duration) float64 {
	return kernelSeconds * float64(d) / float64(k.run())
}

// collect runs a full garbage collection. Each measured replay starts with
// one, so it pays for collecting the garbage of the replay before it: every
// replay carries the same collection work, instead of whichever replays a
// background cycle happens to overlap.
func collect() { runtime.GC() }

// reference replays the text trace once through the plain API after
// validating it, and checks the result against what the inputs imply.
func reference(w workload, in inputs) (*tireplay.ReplayResult, error) {
	prov, err := tireplay.LoadTraces(in.desc, in.ranks)
	if err != nil {
		return nil, err
	}
	if err := tireplay.ValidateTraces(prov); err != nil {
		return nil, err
	}
	plat, cfg, err := target(w)
	if err != nil {
		return nil, err
	}
	ref, err := tireplay.Replay(prov, plat, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	switch {
	case ref.Actions != in.actions:
		return nil, fmt.Errorf("reference replay ran %d actions, the trace has %d", ref.Actions, in.actions)
	case math.IsNaN(ref.SimulatedTime) || math.IsInf(ref.SimulatedTime, 0) || ref.SimulatedTime < in.minTime:
		return nil, fmt.Errorf("reference simulated time %g s is below the compute bound %g s", ref.SimulatedTime, in.minTime)
	}
	return ref, nil
}

// target builds the workload's platform and the replay configuration
// Scenario.Run derives from it.
func target(w workload) (*tireplay.Platform, tireplay.ReplayConfig, error) {
	plat, model, err := w.platform.Build()
	if err != nil {
		return nil, tireplay.ReplayConfig{}, err
	}
	cfg := tireplay.ReplayConfig{Backend: w.backend}
	if model != nil {
		cfg.Network = model
	}
	return plat, cfg, nil
}

// check counts one replay and reports whether it succeeded with a result
// bit-identical to the reference; replays are deterministic, so any
// difference is a defect.
func (res *result) check(r *tireplay.ReplayResult, err error, ref *tireplay.ReplayResult) bool {
	res.Attempted++
	if err == nil && math.Float64bits(r.SimulatedTime) == math.Float64bits(ref.SimulatedTime) &&
		r.Actions == ref.Actions && r.Engine == ref.Engine {
		return true
	}
	if err == nil {
		err = fmt.Errorf("replay diverged from the reference: %.17g s, %d actions, %+v", r.SimulatedTime, r.Actions, r.Engine)
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	res.Failed++
	res.Correct = false
	return false
}

// more reports whether the measurement loop started at start should run
// another replay: until the budget is spent and at least minReplays ran,
// but not after more than minReplays failures.
func (res *result) more(start time.Time, budget time.Duration) bool {
	return res.Failed <= minReplays && (res.Attempted < minReplays || time.Since(start) < budget)
}

// measureLayers runs the replay as three spans around the calls into the
// layers (platform build, trace ingestion, engine) under a CPU profile, and
// reports the spans' median CPU time, profiled CPU time per layer and
// replay, and the engine's counters.
func measureLayers(w workload, in inputs, ref *tireplay.ReplayResult, budget time.Duration, res *result) error {
	open := func() (tireplay.TraceProvider, error) {
		if w.cache == "on" {
			return tireplay.LoadTIB(in.desc + ".tib")
		}
		return tireplay.LoadTraces(in.desc, in.ranks)
	}
	var platMS, ingestMS, engineMS []float64
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for start := time.Now(); res.more(start, budget); {
		collect()
		c0 := cpuNow()
		plat, cfg, err := target(w)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		c1 := cpuNow()
		prov, err := open()
		var perRank [][]tireplay.Action
		if err == nil {
			perRank, err = tireplay.Materialize(prov)
			if c, ok := prov.(io.Closer); ok {
				c.Close()
			}
		}
		c2 := cpuNow()
		if err != nil {
			res.check(nil, err, ref)
			continue
		}
		r, err := tireplay.Replay(tireplay.TracesInMemory(perRank), plat, cfg)
		c3 := cpuNow()
		if !res.check(r, err, ref) {
			continue
		}
		platMS = append(platMS, ms(c1-c0))
		ingestMS = append(ingestMS, ms(c2-c1))
		engineMS = append(engineMS, ms(c3-c2))
	}
	runtime.ReadMemStats(&after)
	pprof.StopCPUProfile()
	n := float64(len(engineMS))
	if n == 0 {
		return nil
	}
	layers, err := layerCPU(prof.Bytes())
	if err != nil {
		return err
	}

	m := res.Metrics
	m["span_platform_cpu_ms"] = metric{quantile(platMS, 0.5), "ms"}
	m["span_ingest_cpu_ms"] = metric{quantile(ingestMS, 0.5), "ms"}
	m["span_engine_cpu_ms"] = metric{quantile(engineMS, 0.5), "ms"}
	for _, l := range []string{"ingest", "routing", "lowering", "scheduling", "network", "runtime"} {
		m["prof_"+l+"_ms"] = metric{ms(time.Duration(layers[l])) / n, "ms"}
	}
	m["allocs_per_replay"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
	m["alloc_mb_per_replay"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n, "MB"}

	st := ref.Engine
	m["events"] = metric{float64(st.Events), "count"}
	m["context_switches"] = metric{float64(st.ContextSwitches), "count"}
	m["comms"] = metric{float64(st.CommsStarted), "count"}
	m["share_recomputes"] = metric{float64(st.ShareRecomputes), "count"}
	m["flows_per_recompute"] = metric{float64(st.FlowsResolved) / float64(max(st.ShareRecomputes, 1)), "flows"}
	m["max_component_flows"] = metric{float64(st.MaxComponentFlows), "flows"}
	m["engine_ns_per_event"] = metric{1e6 * quantile(engineMS, 0.5) / float64(max(st.Events, 1)), "ns"}
	return nil
}

// cpuNow returns the CPU time the process has used so far, user plus
// system over all threads, so a replay's garbage collection counts and time
// the host gives to other programs does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
