// Command tireplay replays time-independent traces on simulated platforms
// and prints the predicted execution times — the equivalent of the paper's
//
//	smpirun -np 8 -hostfile hostfile -platform platform.xml \
//	    ./smpi_replay trace_description
//
// Single-scenario usage:
//
//	tireplay -desc traces/lu_b8.desc -np 8 -platform platform.json \
//	    [-backend smpi|msg] [-speed 2.5e9] [-validate]
//
// The platform JSON selects one of the supported topologies via its
// "topology" field: the paper's cluster shapes ("flat", "hierarchical",
// "crossbar") or the structured interconnects of the topology zoo
// ("fattree" with radix/levels, "dragonfly" with groups/routers_per_group/
// hosts_per_router/routing, "torus" with torus_dims) — all with real
// deterministic routing. See the README's "Topology zoo" section.
//
// Batch usage — a JSON array of scenario descriptions replayed on a worker
// pool (each simulation is single-threaded; scenarios run concurrently):
//
//	tireplay -scenarios batch.json [-workers 4] [-v]
//
// Sweep usage — a declarative parameter grid (base scenario + axes)
// expanded, streamed through the pool, and persisted to a result store so
// an interrupted or edited sweep resumes instead of re-running:
//
//	tireplay -sweep grid.json [-out results.jsonl] [-csv results.csv] \
//	    [-store results.store] [-resume] [-workers 4] [-v]
//
// Compile-only usage — build the binary trace cache (a sibling .tib file)
// without replaying, so later replays and CI runs start warm:
//
//	tireplay -compile -desc traces/lu_b8.desc [-np 8]
//
// Foreign-trace usage — replay a dump acquired by another toolchain (an SST
// DUMPI ASCII dump or a TAU profile folder), either directly or ingested
// once into the binary .tib form:
//
//	tireplay -import auto -desc dumps/run.dumpi -platform platform.json
//	tireplay -import dumpi -compile -desc dumps/run.dumpi
//
// Service usage — a long-lived sweep server sharing one result store
// across many clients (identical points replay exactly once), with
// work-stealing worker processes draining the queue:
//
//	tireplay serve -addr :9411 -store results.store [-workers N] [-lease-ttl 30s]
//	tireplay work -server http://host:9411 [-workers N] [-name w1]
//	tireplay -sweep grid.json -server http://host:9411 [-out results.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"iter"
	mrand "math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tireplay"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "work":
			runWork(os.Args[2:])
			return
		}
	}
	runMain()
}

func runMain() {
	desc := flag.String("desc", "", "trace description file (one trace file per rank, or a single merged trace)")
	np := flag.Int("np", 0, "number of ranks (required with a merged trace; otherwise inferred)")
	platPath := flag.String("platform", "", "platform description (JSON)")
	backend := flag.String("backend", "smpi", "replay backend: one of "+fmt.Sprint(tireplay.Backends()))
	speed := flag.Float64("speed", 0, "override host compute rate (instructions/s), e.g. a calibrated value")
	validate := flag.Bool("validate", false, "cross-validate the trace before replaying")
	scenarios := flag.String("scenarios", "", "JSON scenario batch file; replaces -desc/-platform")
	sweepSpec := flag.String("sweep", "", "JSON sweep spec (base scenario + parameter axes); replaces -desc/-platform")
	out := flag.String("out", "", "stream sweep results to this JSONL file as they complete")
	csvOut := flag.String("csv", "", "stream sweep results to this CSV file as they complete")
	storeDir := flag.String("store", "", "sweep result-store directory (default: the spec's, or <spec>.store with -resume)")
	resume := flag.Bool("resume", false, "require the result store and skip already-completed sweep points")
	workers := flag.Int("workers", 0, "batch worker-pool size (0 = all CPUs)")
	verbose := flag.Bool("v", false, "print engine statistics / batch progress")
	compile := flag.Bool("compile", false, "compile -desc into a sibling .tib binary trace cache and exit")
	cache := flag.String("trace-cache", "auto", "binary trace cache mode: auto, on, or off")
	importFmt := flag.String("import", "", "treat -desc as a foreign trace in this format: one of "+fmt.Sprint(tireplay.TraceImporters())+", or auto to sniff")
	importRate := flag.Float64("import-rate", 0, "with -import: CPU-seconds-to-instructions rate when the dump has no hardware counter (0 = 1e9)")
	server := flag.String("server", "", "with -sweep: submit to this sweep server (tireplay serve) instead of running locally")
	flag.Parse()

	if *compile {
		if *desc == "" {
			fmt.Fprintln(os.Stderr, "tireplay: -compile requires -desc")
			os.Exit(2)
		}
		if *importFmt != "" {
			// Foreign-trace ingestion: pay the DUMPI/TAU parse once, replay
			// from the binary form ever after.
			tibPath := *desc + ".tib"
			ranks, err := tireplay.ImportCompileTraces(*importFmt, *desc, tibPath,
				tireplay.TraceImportOptions{InstructionRate: *importRate})
			fatal(err)
			fmt.Printf("imported %d ranks, compiled %s\n", ranks, tibPath)
			return
		}
		if *np == 0 {
			// A single-entry description is the merged layout: without a
			// rank count it would silently compile as one rank.
			entries, err := tireplay.TraceDescriptionEntries(*desc)
			fatal(err)
			if entries == 1 {
				fmt.Fprintln(os.Stderr, "tireplay: -compile on a merged (single-entry) trace description requires -np")
				os.Exit(2)
			}
		}
		tibPath, rebuilt, err := tireplay.CompileTraces(*desc, *np)
		fatal(err)
		if rebuilt {
			fmt.Printf("compiled %s\n", tibPath)
		} else {
			fmt.Printf("cache up to date: %s\n", tibPath)
		}
		return
	}

	if *sweepSpec != "" {
		if *server != "" {
			runRemoteSweep(*sweepSpec, *server, *out, *csvOut, *verbose)
			return
		}
		runSweep(*sweepSpec, *out, *csvOut, *storeDir, *resume, *workers, *verbose)
		return
	}

	if *scenarios != "" {
		runBatch(*scenarios, *workers, *verbose)
		return
	}

	if *desc == "" || *platPath == "" {
		fmt.Fprintln(os.Stderr, "tireplay: -desc and -platform are required (or use -scenarios)")
		flag.Usage()
		os.Exit(2)
	}

	s := &tireplay.Scenario{
		PlatformFile:  *platPath,
		TraceDesc:     *desc,
		Ranks:         *np,
		Backend:       *backend,
		HostSpeed:     *speed,
		ValidateTrace: *validate,
		TraceCache:    *cache,
		TraceFormat:   *importFmt,
		ImportRate:    *importRate,
	}
	if *backend == tireplay.MSG {
		// The prototype's crude hard-coded network reference figures, and
		// no piece-wise factors even if the platform declares them.
		s.MSG = tireplay.MSGPrototypeConfig()
		s.NoNetworkFactors = true
	}

	res, err := s.Run(context.Background())
	fatal(err)

	if *validate {
		fmt.Println("trace validated: sends/receives matched, collectives balanced")
	}
	fmt.Printf("simulated time: %.6f s\n", res.SimulatedTime)
	fmt.Printf("replayed %d actions in %v (%.0f actions/s)\n",
		res.Actions, res.Wall, res.ActionsPerSecond())
	if *verbose {
		fmt.Printf("engine: %+v\n", res.Engine)
	}
}

func runSweep(specPath, out, csvOut, storeDir string, resume bool, workers int, verbose bool) {
	sw, err := tireplay.LoadSweep(specPath)
	fatal(err)
	if storeDir != "" {
		sw.Store = storeDir
	}
	if resume {
		sw.Resume = "on"
		if sw.Store == "" {
			sw.Store = specPath + ".store"
		}
	}
	// Expansion happens inside RunSweep; the count is only for progress
	// lines, so pay for a second expansion only when asked to narrate.
	total := 0
	if verbose {
		points, err := sw.Expand()
		fatal(err)
		total = len(points)
		fmt.Fprintf(os.Stderr, "sweep %s: %d points\n", sw.Name, total)
	}
	records := func(yield func(*tireplay.SweepRecord, error) bool) {
		for r, err := range tireplay.RunSweep(context.Background(), sw, workers) {
			fatal(err)
			if !yield(r.Record(sw.Name), nil) {
				return
			}
		}
	}
	report(sw, records, total, "the result store", out, csvOut, verbose)
}

// report writes each sweep record, as it arrives, to the -out and -csv
// sinks and prints it as one line (with a [k/total] progress line under
// -v), then summarizes and exits 1 if any point failed. store names where
// cached records came from.
func report(sw *tireplay.Sweep, records iter.Seq2[*tireplay.SweepRecord, error], total int, store, out, csvOut string, verbose bool) {
	var sinks []tireplay.SweepSink
	if out != "" {
		f, err := os.Create(out)
		fatal(err)
		defer f.Close()
		sinks = append(sinks, tireplay.NewJSONLSink(f))
	}
	if csvOut != "" {
		axes := make([]string, len(sw.Axes))
		for i := range sw.Axes {
			axes[i] = sw.Axes[i].Name
		}
		f, err := os.Create(csvOut)
		fatal(err)
		defer f.Close()
		sinks = append(sinks, tireplay.NewCSVSink(f, axes...))
	}

	done, failed, cached := 0, 0, 0
	for rec, err := range records {
		fatal(err)
		for _, s := range sinks {
			fatal(s.Write(rec))
		}
		done++
		if rec.Err != "" {
			failed++
			fmt.Printf("%-24s ERROR: %s\n", rec.Name, rec.Err)
		} else {
			tag := ""
			if rec.Cached {
				cached++
				tag = "   (stored)"
			}
			fmt.Printf("%-24s simulated %10.6f s   (%d actions in %v)%s\n",
				rec.Name, rec.Replay.SimulatedTime, rec.Replay.Actions, rec.Replay.Wall, tag)
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, rec.Name)
		}
	}
	if verbose && cached > 0 {
		fmt.Fprintf(os.Stderr, "tireplay: %d of %d points served from %s\n", cached, done, store)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tireplay: %d of %d sweep points failed\n", failed, done)
		os.Exit(1)
	}
}

func runBatch(path string, workers int, verbose bool) {
	batch, err := tireplay.LoadScenarios(path)
	fatal(err)

	// Progress follows completion order; the rows follow the batch.
	results := make([]tireplay.ScenarioResult, len(batch))
	done := 0
	for r := range tireplay.RunScenarios(context.Background(), batch, workers) {
		results[r.Index] = r
		done++
		if verbose {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, len(batch), name(r))
		}
	}

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("%-24s ERROR: %v\n", name(r), r.Err)
			continue
		}
		fmt.Printf("%-24s simulated %10.6f s   (%d actions in %v)\n",
			name(r), r.Replay.SimulatedTime, r.Replay.Actions, r.Replay.Wall)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tireplay: %d of %d scenarios failed\n", failed, len(results))
		os.Exit(1)
	}
}

func name(r tireplay.ScenarioResult) string {
	if r.Scenario.Name != "" {
		return r.Scenario.Name
	}
	return fmt.Sprintf("scenario %d", r.Index)
}

// runServe starts the sweep service: HTTP submit/stream endpoints, a
// shared result store, an embedded worker pool, and the lease protocol
// external `tireplay work` processes drain the queue through.
func runServe(args []string) {
	fs := flag.NewFlagSet("tireplay serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9411", "listen address")
	storeDir := fs.String("store", "", "shared result-store directory (required)")
	workers := fs.Int("workers", 0, "embedded worker-pool size (0 = all CPUs, negative = external workers only)")
	ttl := fs.Duration("lease-ttl", 30*time.Second, "work lease time-to-live (heartbeat interval is derived from it)")
	maxAttempts := fs.Int("max-attempts", 0, "replay attempts per point before it is quarantined as a permanent failure (0 = default 3)")
	drain := fs.Duration("drain", 0, "grace period on SIGTERM for in-flight leases to post results (0 = default 10s)")
	verbose := fs.Bool("v", false, "log submissions, leases, and expirations")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "tireplay serve: -store is required")
		fs.Usage()
		os.Exit(2)
	}

	cfg := tireplay.ServeConfig{Store: *storeDir, Workers: *workers, LeaseTTL: *ttl,
		MaxAttempts: *maxAttempts, Drain: *drain}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "tireplay: serving on http://%s (store %s)\n", *addr, *storeDir)
	fatal(tireplay.Serve(ctx, *addr, cfg))
}

// runWork runs lease-replay-post worker loops against a sweep server
// until interrupted. Started before its server, or across a server
// restart, it just keeps polling.
func runWork(args []string) {
	fs := flag.NewFlagSet("tireplay work", flag.ExitOnError)
	server := fs.String("server", "", "sweep server base URL, e.g. http://host:9411 (required)")
	workers := fs.Int("workers", 1, "concurrent replay loops in this process")
	name := fs.String("name", "", "worker name reported to the server (default pid)")
	poll := fs.Duration("poll", 2*time.Second, "lease long-poll window and transport-error backoff")
	verbose := fs.Bool("v", false, "log leases and retries")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *server == "" {
		fmt.Fprintln(os.Stderr, "tireplay work: -server is required")
		fs.Usage()
		os.Exit(2)
	}
	if *name == "" {
		*name = fmt.Sprintf("pid%d", os.Getpid())
	}
	if *workers < 1 {
		*workers = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		opts := tireplay.WorkerOptions{Name: fmt.Sprintf("%s/%d", *name, i), Poll: *poll}
		if *verbose {
			opts.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tireplay.Work(ctx, *server, opts); err != nil {
				fmt.Fprintln(os.Stderr, "tireplay work:", err)
			}
		}()
	}
	wg.Wait()
}

// runRemoteSweep submits a sweep spec to a server and reports the
// streamed results exactly like a local run.
func runRemoteSweep(specPath, server, out, csvOut string, verbose bool) {
	sw, err := tireplay.LoadSweep(specPath)
	fatal(err)
	ctx := context.Background()
	fatal(waitForServer(ctx, server, 30*time.Second))

	sub, err := tireplay.SubmitSweep(ctx, server, sw)
	fatal(err)
	if verbose {
		fmt.Fprintf(os.Stderr, "sweep %s: %d points (%d cached, %d merged, %d pending) as %s\n",
			sw.Name, sub.Points, sub.Cached, sub.Merged, sub.Pending, sub.ID)
	}

	report(sw, tireplay.StreamResults(ctx, server, sub.ID), sub.Points, "the server's store", out, csvOut, verbose)
}

// waitForServer polls the server's health endpoint so a client (or CI
// smoke script) started alongside the server does not race its bind.
// Probes back off exponentially with full jitter under an overall
// deadline, so a fleet of workers pointed at a booting (or restarting)
// server neither hammers it nor stampedes in lockstep when it appears.
func waitForServer(ctx context.Context, server string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wait := 50 * time.Millisecond
	const maxWait = 2 * time.Second
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, server+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz returned %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep server %s unreachable after %v: %v", server, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(mrand.Int64N(int64(wait))) + 1):
		}
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tireplay:", err)
		os.Exit(1)
	}
}
