// Package runner executes batches of scenarios on a worker pool. Each
// simulation engine is single-threaded and scenarios share no state, so a
// sweep — the paper's whole evaluation grid, or a dimensioning study over
// candidate platforms — is embarrassingly parallel across scenarios while
// every individual replay stays deterministic.
//
// Stream yields one Result per scenario in completion order, which is what
// lets the sweep layer (package sweep) persist and report results as they
// land instead of blocking on the whole batch; a caller that wants input
// order places each result by its Index.
package runner

import (
	"context"
	"iter"
	"runtime"
	"sync"

	"tireplay/internal/core"
	"tireplay/internal/scenario"
)

// Result is the outcome of one scenario of a batch. Exactly one of Replay
// and Err is set, unless the scenario was skipped by cancellation (then Err
// is the context's error).
type Result struct {
	// Index is the scenario's position in the input slice: Stream yields
	// results in completion order, and Index identifies the scenario.
	Index int
	// Scenario is the executed scenario.
	Scenario *scenario.Scenario
	// Replay is the replay outcome, nil if the scenario failed or was
	// skipped.
	Replay *core.Result
	// Err is the scenario's failure, nil on success. A failure affects only
	// this scenario; the rest of the batch still runs.
	Err error
}

// Stream executes every scenario on a pool of workers and yields one
// terminal Result per scenario in completion order; workers < 1 selects
// GOMAXPROCS. Workers only add wall-clock parallelism: per-scenario results
// are bit-identical to a sequential run. Scenario failures are carried in
// their Result and do not abort the batch. When ctx is cancelled
// mid-batch, every not-yet-started scenario is still yielded, skipped,
// with the context's error as its Err — the stream always delivers
// exactly len(scenarios) results unless the consumer stops early.
// Stopping early (breaking out of the range loop) cancels the remaining
// work and reclaims the pool.
func Stream(ctx context.Context, scenarios []*scenario.Scenario, workers int) iter.Seq[Result] {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(scenarios))

	return func(yield func(Result) bool) {
		if len(scenarios) == 0 {
			return
		}
		// Early consumer exit must stop the pool, not leak it: cancel the
		// derived context and drain until the pool closes the channel.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		out := make(chan Result)
		indexes := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indexes {
					r := Result{Index: i, Scenario: scenarios[i]}
					if err := ctx.Err(); err != nil {
						// Cancelled: mark the scenario skipped, don't run it.
						r.Err = err
					} else {
						r.Replay, r.Err = r.Scenario.Run(ctx)
					}
					out <- r
				}
			}()
		}

		go func() {
		feed:
			for i := range scenarios {
				select {
				case indexes <- i:
				case <-ctx.Done():
					// Indexes from i on were never handed to a worker: report
					// them skipped with the context's error.
					for j := i; j < len(scenarios); j++ {
						out <- Result{Index: j, Scenario: scenarios[j], Err: ctx.Err()}
					}
					break feed
				}
			}
			close(indexes)
			wg.Wait()
			close(out)
		}()

		for r := range out {
			if !yield(r) {
				cancel()
				for range out { // unblock the pool until it closes the channel
				}
				return
			}
		}
	}
}
