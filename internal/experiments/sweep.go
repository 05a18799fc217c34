package experiments

// The sweep experiment is the declarative-grid showcase: the paper's whole
// {LU, CG} x classes x process-count x backend grid of perfect-trace
// replays, expressed as a sweep.Sweep spec — a base scenario plus axes —
// instead of hand-written nested loops, and executed concurrently on the
// worker pool. Per-scenario results are identical to sequential execution;
// only the wall-clock time shrinks.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"tireplay/internal/ground"
	"tireplay/internal/npb"
	"tireplay/internal/scenario"
	"tireplay/internal/sweep"
)

// SweepRow is one scenario outcome of a batch sweep.
type SweepRow struct {
	Name    string
	Backend string
	// Sim is the predicted execution time, Wall the replay cost.
	Sim, Wall float64
	Actions   int64
	// Err is the scenario's failure message, "" on success.
	Err string
}

// SweepSpec declares the replay grid {LU, CG} x classes x procs x
// {SMPI, MSG} of perfect traces on the target cluster as a sweep: the
// paper's whole evaluation, as one serializable spec.
func SweepSpec(target *ground.Cluster, classes []npb.Class, procs []int, opt Options) (*sweep.Sweep, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one class")
	}
	// The SMPI points replay as the new pipeline does (no eager copy, as
	// in the paper-era SMPI), the MSG points as the old one.
	smpi, msg := NewPipeline.replay(target, nil), OldPipeline.replay(target, nil)

	classVals := make([]any, len(classes))
	for i, c := range classes {
		classVals[i] = c.String()
	}

	// Each procs value swaps in the whole platform description for that
	// scale (the cluster's spec differs per rank count), coupled with the
	// workload's process count.
	var procVals []any
	var procLabels []string
	for _, p := range procs {
		if p > target.Hosts {
			continue
		}
		spec, err := toDoc(target.Spec(p))
		if err != nil {
			return nil, err
		}
		procVals = append(procVals, map[string]any{
			"workload.procs": p,
			"platform":       spec,
		})
		procLabels = append(procLabels, fmt.Sprint(p))
	}
	if len(procVals) == 0 {
		return nil, fmt.Errorf("experiments: no process count in %v fits %s's %d hosts", procs, target.Name, target.Hosts)
	}

	msgCfg, err := toDoc(msg.MSG)
	if err != nil {
		return nil, err
	}

	return &sweep.Sweep{
		Name: "paper-grid-" + target.Name,
		Base: scenario.Scenario{
			Platform: target.Spec(1),
			Workload: &scenario.WorkloadSpec{
				Benchmark: "lu", Class: classes[0].String(), Procs: 1,
				Iterations: opt.iters(),
			},
			MPI: smpi.MPI,
		},
		NameFormat: "{bench} {class}-{procs}/{backend}",
		Axes: []sweep.Axis{
			{Name: "bench", Path: "workload.benchmark", Values: []any{"lu", "cg"}},
			{Name: "class", Path: "workload.class", Values: classVals},
			{Name: "procs", Values: procVals, Labels: procLabels},
			{Name: "backend", Values: []any{
				map[string]any{"backend": "smpi"},
				// The prototype's crude hard-coded network reference
				// figures, no piece-wise factors, and no SMPI model config
				// (it is inert for msg, but clearing it keeps the point's
				// fingerprint decoupled from SMPI knob changes).
				map[string]any{"backend": "msg", "msg": msgCfg, "mpi": map[string]any{}, "no_network_factors": true},
			}, Labels: []string{"smpi", "msg"}},
		},
	}, nil
}

// toDoc converts a serializable value to its generic JSON document form,
// usable as an axis assignment.
func toDoc(v any) (map[string]any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Sweep expands the grid and runs it on a worker pool; workers < 1 selects
// GOMAXPROCS. observe, when non-nil, is called after each scenario
// completes, with the number completed so far and the grid's size. Rows
// come in grid order.
func Sweep(ctx context.Context, target *ground.Cluster, classes []npb.Class, procs []int,
	workers int, opt Options, observe func(done, total int, name string)) ([]SweepRow, error) {

	spec, err := SweepSpec(target, classes, procs, opt)
	if err != nil {
		return nil, err
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(points))
	done := 0
	for r, err := range sweep.Run(ctx, spec, workers) {
		if err != nil {
			return nil, err
		}
		done++
		if observe != nil {
			observe(done, len(points), r.Point.Scenario.Name)
		}
		row := &rows[r.Point.Index]
		*row = SweepRow{Name: r.Point.Scenario.Name, Backend: r.Point.Scenario.Backend}
		if r.Err != nil {
			row.Err = r.Err.Error()
			continue
		}
		row.Sim = r.Replay.SimulatedTime
		row.Wall = r.Replay.Wall.Seconds()
		row.Actions = r.Replay.Actions
	}
	return rows, ctx.Err()
}

// RenderSweep prints sweep rows as a table.
func RenderSweep(w io.Writer, title string, rows []SweepRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s | %12s %12s %10s\n", "Scenario", "Simulated", "ReplayWall", "Actions")
	fmt.Fprintf(w, "%s\n", lineOf(56))
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-16s | ERROR: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-16s | %11.3fs %11.3fs %10d\n", r.Name, r.Sim, r.Wall, r.Actions)
	}
}
