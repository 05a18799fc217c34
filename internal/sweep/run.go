package sweep

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"strings"

	"tireplay/internal/core"
	"tireplay/internal/runner"
	"tireplay/internal/scenario"
)

// Result is the outcome of one grid point of a sweep.
type Result struct {
	// Point is the expanded grid point.
	Point Point
	// Replay is the replay outcome, nil if the point failed or was
	// skipped by cancellation.
	Replay *core.Result
	// Err is the point's failure (or the context's error for points
	// skipped by cancellation), nil on success.
	Err error
	// Cached reports the result was served from the result store instead
	// of replayed.
	Cached bool
}

// Record converts the result to its serialized form.
func (r *Result) Record(sweepName string) *Record {
	rec := &Record{
		Sweep:       sweepName,
		Index:       r.Point.Index,
		Name:        r.Point.Scenario.Name,
		Fingerprint: r.Point.Fingerprint,
		Values:      r.Point.Values,
		Labels:      r.Point.Labels,
		Cached:      r.Cached,
		Replay:      r.Replay,
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// Run expands the sweep and executes it on a pool of workers (workers < 1
// selects GOMAXPROCS), yielding results as they complete: stored results
// first (in grid order, when resuming), then live replays in completion
// order. Per-point failures ride in Result.Err and do not stop the sweep;
// a non-nil error from the iterator (spec or store failure) is fatal and
// ends the iteration. Breaking out of the loop cancels the remaining
// points and reclaims the pool.
//
// With a result store configured (Sweep.Store), every successful replay is
// persisted under its scenario fingerprint, and — unless Sweep.Resume is
// "off" — points whose fingerprint is already stored are served from disk
// instead of replayed, so re-running an edited or interrupted sweep only
// replays what is missing.
func Run(ctx context.Context, sw *Sweep, workers int) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		// Expand validates the resume mode.
		points, err := sw.Expand()
		if err != nil {
			yield(Result{}, err)
			return
		}
		resume := strings.ToLower(sw.Resume)
		if resume == "on" && sw.Store == "" {
			yield(Result{}, fmt.Errorf("sweep %s: resume \"on\" requires a result store (Sweep.Store)", sw.label()))
			return
		}
		var store *Store
		if sw.Store != "" {
			store, err = OpenStore(sw.Store)
			if err != nil {
				yield(Result{}, err)
				return
			}
		}

		// emit persists and hands the result to the consumer. Store
		// failures are fatal: dropping results silently would corrupt the
		// resume set.
		emit := func(r Result) bool {
			if store != nil && !r.Cached && r.Err == nil {
				if err := store.Put(r.Record(sw.Name)); err != nil {
					yield(r, err)
					return false
				}
			}
			return yield(r, nil)
		}

		// Partition the grid into stored results and pending replays.
		var pending []Point
		var cached []Result
		if store != nil && resume != "off" {
			for _, pt := range points {
				rec, err := store.Get(pt.Fingerprint)
				if err != nil {
					yield(Result{Point: pt}, err)
					return
				}
				if rec != nil && rec.Replay != nil {
					cached = append(cached, Result{Point: pt, Replay: rec.Replay, Cached: true})
				} else {
					pending = append(pending, pt)
				}
			}
		} else {
			pending = points
		}
		for _, r := range cached {
			if !emit(r) {
				return
			}
		}
		if len(pending) == 0 {
			return
		}

		// Share the compiled trace caches: compile each distinct trace set
		// once, before the pool fans out, instead of letting every worker
		// race to rebuild the same .tib. Errors are left for the scenarios
		// themselves to surface (or to fall back from, in auto mode).
		prewarmTraceCaches(pending)

		scenarios := make([]*scenario.Scenario, len(pending))
		for i, pt := range pending {
			scenarios[i] = pt.Scenario
		}
		for rr := range runner.Stream(ctx, scenarios, workers) {
			if !emit(Result{Point: pending[rr.Index], Replay: rr.Replay, Err: rr.Err}) {
				return
			}
		}
	}
}

// Collect drains Run into a slice ordered by grid index. The error is the
// first fatal (spec or store) failure, or ctx's error when the sweep was
// cancelled; per-point failures stay in their Result.
func Collect(ctx context.Context, sw *Sweep, workers int) ([]Result, error) {
	var out []Result
	for r, err := range Run(ctx, sw, workers) {
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.Index < out[j].Point.Index })
	return out, ctx.Err()
}

// prewarmTraceCaches compiles each distinct TraceDesc trace set once.
func prewarmTraceCaches(points []Point) {
	type key struct {
		desc  string
		ranks int
	}
	seen := make(map[key]bool)
	for _, pt := range points {
		s := pt.Scenario
		if s.TraceDesc == "" {
			continue
		}
		k := key{s.TraceDesc, s.Ranks}
		if seen[k] {
			continue
		}
		seen[k] = true
		s.CompileTraceCache() //nolint:errcheck // replay surfaces cache errors
	}
}
