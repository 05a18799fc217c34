package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"tireplay/internal/core"
	"tireplay/internal/scenario"
	"tireplay/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the shared result-store directory (required): every
	// completed point persists there, and submissions are answered from
	// it across server restarts. The sweep journal lives inside it
	// (journal.wal), so store + journal travel as one unit.
	Store string
	// Workers sizes the embedded worker pool: 0 selects GOMAXPROCS,
	// negative disables embedded execution (external workers only).
	Workers int
	// LeaseTTL is how long a leased point may go without a heartbeat
	// before it returns to the queue; 0 selects 30s.
	LeaseTTL time.Duration
	// MaxAttempts is the per-point retry budget: a point whose replay
	// has failed (or whose lease has expired) this many times completes
	// as a permanent-failure record instead of requeueing forever.
	// 0 selects 3.
	MaxAttempts int
	// Drain is how long a terminating Serve waits for in-flight leases
	// to post their results before closing (Shutdown callers pass their
	// own deadline); 0 selects 10s.
	Drain time.Duration
	// Logf, when set, receives one line per notable server event
	// (submissions, expired leases, retries, store failures).
	Logf func(format string, args ...any)
}

// Point lifecycle states.
const (
	pQueued = iota
	pLeased
	pDone
)

// point is the singleflight entry for one distinct scenario fingerprint:
// however many sweeps (from however many clients) contain it, it is
// queued, leased, replayed, and completed exactly once.
type point struct {
	fp           string
	scenario     *scenario.Scenario
	scenarioJSON json.RawMessage
	state        int
	// attempts counts leases granted for this point; when it reaches the
	// retry budget the next failure (or expiry) quarantines the point.
	attempts int
	// lastErr remembers the most recent failure, for the quarantine
	// record when the budget runs out.
	lastErr string
	// record is the canonical result (fingerprint, replay, error), set
	// once state is pDone. Per-sweep metadata is applied at emission.
	record  *sweep.Record
	leaseID string
	// expiry is the lease deadline; zero for embedded leases (same
	// process — a lost embedded worker means a lost server).
	expiry time.Time
	// subs are the sweeps waiting on this point.
	subs []*sweepRun
}

// sweepRun is one submitted sweep: its expanded grid plus the completion
// order its result streams replay. order's i-th entry is the record with
// sequence number i+1 — the durable contract resumable streams rely on.
type sweepRun struct {
	id     string
	name   string
	points []sweep.Point
	// fpIndex maps a fingerprint to the grid indices it satisfies (two
	// points of one grid can share a fingerprint, e.g. label-only axes).
	fpIndex map[string][]int
	// emitted marks grid indices already appended to order (and
	// journaled), so crash recovery and duplicate completions are
	// idempotent per index.
	emitted []bool
	// cached marks grid indices served from the store rather than
	// replayed for this sweep.
	cached []bool
	// order is the completion order of grid indices; streams index into
	// it and wait on notify for growth.
	order  []int
	failed int
	notify chan struct{}
}

func newRun(id, name string, points []sweep.Point) *sweepRun {
	run := &sweepRun{
		id:      id,
		name:    name,
		points:  points,
		fpIndex: make(map[string][]int),
		emitted: make([]bool, len(points)),
		cached:  make([]bool, len(points)),
		notify:  make(chan struct{}),
	}
	for _, pt := range points {
		run.fpIndex[pt.Fingerprint] = append(run.fpIndex[pt.Fingerprint], pt.Index)
	}
	return run
}

// Server is the sweep service: shared store, durable journal,
// singleflight dedup, work-stealing queue with retry budgets, lease
// janitor, and (optionally) embedded workers. Create with New, expose
// via Handler, drain with Shutdown or stop hard with Close.
type Server struct {
	cfg     Config
	store   *sweep.Store
	journal *journal
	mux     *http.ServeMux

	mu       sync.Mutex
	queue    []*point
	qnotify  chan struct{} // closed+replaced when the queue grows
	points   map[string]*point
	sweeps   map[string]*sweepRun
	leases   map[string]*point
	stats    Stats
	draining bool
	closed   bool

	drainCh chan struct{} // closed when draining starts
	closing chan struct{}
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Server over the configured store, recovers open sweeps
// from the journal found next to it, and starts its embedded workers and
// lease janitor.
func New(cfg Config) (*Server, error) {
	if cfg.Store == "" {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	st, err := sweep.OpenStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	warm, err := st.Len()
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}

	s := &Server{
		cfg:     cfg,
		store:   st,
		qnotify: make(chan struct{}),
		points:  make(map[string]*point),
		sweeps:  make(map[string]*sweepRun),
		leases:  make(map[string]*point),
		drainCh: make(chan struct{}),
		closing: make(chan struct{}),
	}
	s.stats.StoreWarm = warm

	jr, entries, err := openJournal(filepath.Join(cfg.Store, "journal.wal"))
	if err != nil {
		return nil, err
	}
	s.journal = jr
	s.recover(entries)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("POST /sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /lease", s.handleLease)
	s.mux.HandleFunc("POST /lease/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /results", s.handleResult)
	s.mux.HandleFunc("GET /stats", s.handleStats)

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.runEmbedded(ctx)
	}

	s.wg.Add(1)
	go s.runJanitor(ctx)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's result store.
func (s *Server) Store() *sweep.Store { return s.store }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Sweeps = len(s.sweeps)
	st.Fingerprints = len(s.points)
	st.Queued = len(s.queue)
	st.Leased = len(s.leases)
	return st
}

// Close stops the embedded workers and janitor, ends every open result
// stream, and closes the journal. In-flight external leases are
// abandoned (their posts will fail); the store and journal keep
// everything already completed — a fresh New over the same store picks
// the open sweeps back up.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closing)
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return s.journal.Close()
}

// Shutdown drains the server gracefully: no new leases are granted
// (long-polls answer 204, embedded workers finish their current replay
// and exit), in-flight leases get until ctx's deadline to post their
// results, then the server closes. The journal is flushed on every
// append, so even a deadline overrun loses no completed record.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()

	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		inflight := len(s.leases)
		s.mu.Unlock()
		if inflight == 0 {
			break
		}
		select {
		case <-ctx.Done():
			s.logf("serve: drain deadline passed with %d leases in flight (their points requeue on restart)", inflight)
			return s.Close()
		case <-t.C:
		}
	}
	return s.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// emitLocked appends every not-yet-emitted grid index of fp to the run's
// completion order, journaling one marker per index before the stream
// wakeup — a record a client can observe is always reconstructible after
// a crash, with the same sequence number.
func (s *Server) emitLocked(run *sweepRun, fp string, rec *sweep.Record, cached bool) {
	grew := false
	for _, idx := range run.fpIndex[fp] {
		if run.emitted[idx] {
			continue
		}
		if s.journal != nil {
			if err := s.journal.append(&journalEntry{
				Kind: journalKindMark, Sweep: run.id, Index: idx, Err: rec.Err, Cached: cached,
			}); err != nil {
				s.logf("serve: journal: %v", err)
			}
		}
		run.emitted[idx] = true
		run.cached[idx] = cached
		run.order = append(run.order, idx)
		if rec.Err != "" {
			run.failed++
		}
		grew = true
	}
	if grew {
		close(run.notify)
		run.notify = make(chan struct{})
	}
}

// resolveLocked binds run to one grid point's fingerprint: emit
// immediately when the result is already known (dedup table or store),
// queue a fresh point, or subscribe the run to the in-flight one.
// Returns whether the queue grew; resp, when non-nil, receives
// submission accounting.
func (s *Server) resolveLocked(run *sweepRun, pt sweep.Point, resp *SubmitResponse) (grew bool) {
	fp := pt.Fingerprint
	p := s.points[fp]
	if p == nil {
		// First time this server sees the scenario: store, then queue.
		rec, err := s.store.Get(fp)
		if err == nil && rec != nil && rec.Replay != nil {
			p = &point{fp: fp, state: pDone,
				record: &sweep.Record{Fingerprint: fp, Replay: rec.Replay}}
			s.points[fp] = p
		} else {
			if err != nil {
				// A corrupt stored record is not fatal: re-replay it.
				s.logf("serve: store: %v (re-replaying)", err)
			}
			scJSON, merr := json.Marshal(pt.Scenario)
			if merr != nil {
				// Cannot happen for a sweep-expanded scenario; fail the
				// point rather than the submission.
				p = &point{fp: fp, state: pDone,
					record: &sweep.Record{Fingerprint: fp, Err: merr.Error()}}
				s.points[fp] = p
			} else {
				p = &point{fp: fp, scenario: pt.Scenario, scenarioJSON: scJSON, state: pQueued}
				s.points[fp] = p
				s.queue = append(s.queue, p)
				grew = true
			}
		}
	} else if p.state != pDone {
		s.stats.Merged++
		if resp != nil {
			resp.Merged++
		}
	}
	if p.state == pDone {
		fromStore := p.record.Err == "" // errors are never store hits
		hits := 0
		for _, idx := range run.fpIndex[fp] {
			if !run.emitted[idx] {
				hits++
			}
		}
		s.emitLocked(run, fp, p.record, fromStore)
		if fromStore {
			s.stats.CacheHits += hits
			if resp != nil {
				resp.Cached += hits
			}
		}
	} else {
		p.subs = append(p.subs, run)
		if resp != nil {
			resp.Pending += len(run.fpIndex[fp])
		}
	}
	return grew
}

// register journals and adds a sweep's expanded points to the dedup
// table and queue, answering from the store where possible.
func (s *Server) register(sw *sweep.Sweep, points []sweep.Point) (*sweepRun, SubmitResponse, error) {
	run := newRun(newID(), sw.Name, points)
	var resp SubmitResponse
	resp.ID = run.id
	resp.Points = len(points)

	spec, err := json.Marshal(sw)
	if err != nil {
		return nil, resp, fmt.Errorf("serve: encoding sweep spec: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Journal the submission before anything becomes observable: a crash
	// from here on re-registers the sweep under the same ID.
	if err := s.journal.append(&journalEntry{Kind: journalKindSweep, ID: run.id, Name: sw.Name, Spec: spec}); err != nil {
		return nil, resp, err
	}
	s.sweeps[run.id] = run
	grew := false
	seen := make(map[string]bool, len(points))
	for _, pt := range points {
		if seen[pt.Fingerprint] {
			continue
		}
		seen[pt.Fingerprint] = true
		if s.resolveLocked(run, pt, &resp) {
			grew = true
		}
	}
	if grew {
		close(s.qnotify)
		s.qnotify = make(chan struct{})
	}
	return run, resp, nil
}

// recover rebuilds open sweeps from journal entries: re-expand each
// journaled spec (expansion is deterministic, the paper's premise made
// infrastructure), replay its completion markers into the same order —
// so every sequence number a client saw before the crash denotes the
// same record — then answer still-unmarked points from the store and
// queue the rest. Called from New before any handler can run; takes the
// lock anyway so emitLocked's invariants hold.
func (s *Server) recover(entries []journalEntry) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recCache := make(map[string]*sweep.Record)
	var recovered []*sweepRun
	for i := range entries {
		e := &entries[i]
		switch e.Kind {
		case journalKindSweep:
			sw, err := sweep.ReadSpec(bytes.NewReader(e.Spec))
			if err != nil {
				s.logf("serve: journal: sweep %s spec: %v (dropping)", e.ID, err)
				continue
			}
			points, err := sw.Expand()
			if err != nil {
				s.logf("serve: journal: sweep %s expand: %v (dropping)", e.ID, err)
				continue
			}
			run := newRun(e.ID, sw.Name, points)
			s.sweeps[run.id] = run
			recovered = append(recovered, run)
			s.stats.RecoveredSweeps++
		case journalKindMark:
			run := s.sweeps[e.Sweep]
			if run == nil || e.Index < 0 || e.Index >= len(run.points) || run.emitted[e.Index] {
				continue
			}
			fp := run.points[e.Index].Fingerprint
			p := s.points[fp]
			if p == nil {
				p = &point{fp: fp}
				s.points[fp] = p
			}
			if p.state != pDone {
				p.state = pDone
				p.record = s.recoveredRecord(fp, e.Err, recCache)
			}
			run.emitted[e.Index] = true
			run.cached[e.Index] = e.Cached
			run.order = append(run.order, e.Index)
			if e.Err != "" {
				run.failed++
			}
		default:
			s.logf("serve: journal: unknown entry kind %q (skipping)", e.Kind)
		}
	}
	// Second pass: points the journal never marked either completed
	// without their marker surviving (answer from the store, journaling a
	// fresh marker) or were still open (requeue them).
	grew := false
	for _, run := range recovered {
		seen := make(map[string]bool, len(run.points))
		for _, pt := range run.points {
			if seen[pt.Fingerprint] {
				continue
			}
			seen[pt.Fingerprint] = true
			all := true
			for _, idx := range run.fpIndex[pt.Fingerprint] {
				if !run.emitted[idx] {
					all = false
					break
				}
			}
			if all {
				continue
			}
			if s.resolveLocked(run, pt, nil) {
				grew = true
			}
		}
	}
	if grew {
		close(s.qnotify)
		s.qnotify = make(chan struct{})
	}
	for _, run := range recovered {
		s.logf("serve: recovered sweep %s (%s): %d/%d points done, %d requeued",
			run.id, run.name, len(run.order), len(run.points), len(s.queue))
	}
}

// recoveredRecord rebuilds the canonical record behind a journaled
// completion marker: failures carry their message in the marker itself,
// successes were persisted to the store before the marker was written.
func (s *Server) recoveredRecord(fp, errMsg string, cache map[string]*sweep.Record) *sweep.Record {
	if errMsg != "" {
		return &sweep.Record{Fingerprint: fp, Err: errMsg}
	}
	if rec, ok := cache[fp]; ok {
		return rec
	}
	stored, err := s.store.Get(fp)
	rec := &sweep.Record{Fingerprint: fp}
	if err != nil || stored == nil || stored.Replay == nil {
		// Persist-before-announce means this needs the store and the
		// journal to fail independently; surface it rather than guess.
		s.logf("serve: journal marks %s done but the store has no result (%v)", fp, err)
		rec.Err = fmt.Sprintf("stored result for %s lost after restart", fp)
	} else {
		rec.Replay = stored.Replay
	}
	cache[fp] = rec
	return rec
}

// markDoneLocked finalizes a point's canonical record and wakes every
// subscribed sweep. Idempotent: late or duplicate completions for an
// already-done point change nothing.
func (s *Server) markDoneLocked(p *point, canon *sweep.Record) {
	if p.state == pDone {
		return
	}
	if p.leaseID != "" {
		delete(s.leases, p.leaseID)
		p.leaseID = ""
	}
	p.state = pDone
	p.record = canon
	if canon.Err == "" {
		s.stats.Replayed++
	} else {
		s.stats.Failed++
	}
	for _, run := range p.subs {
		s.emitLocked(run, p.fp, canon, false)
	}
	p.subs = nil
}

// complete finalizes one point. Successes persist to the store before
// anything is announced; failures consume the retry budget — requeued
// while attempts remain, quarantined into a permanent-failure record
// once they run out.
func (s *Server) complete(p *point, replay *sweep.Record) error {
	canon := &sweep.Record{Fingerprint: p.fp, Replay: replay.Replay, Err: replay.Err}
	if canon.Err == "" && canon.Replay == nil {
		canon.Err = "worker posted an empty result"
	}
	if canon.Err != "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		if p.state == pDone {
			return nil
		}
		p.lastErr = canon.Err
		s.logf("serve: %s failed: %s", p.fp, canon.Err)
		s.retryLocked(p, canon.Err)
		return nil
	}
	if err := s.store.Put(canon); err != nil {
		s.logf("serve: persisting %s: %v", p.fp, err)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDoneLocked(p, canon)
	return nil
}

// retryLocked spends the retry budget on a failed or expired execution of
// p: it requeues p while attempts remain and otherwise completes it as a
// permanent-failure record quoting reason.
func (s *Server) retryLocked(p *point, reason string) {
	if p.attempts < s.cfg.MaxAttempts {
		s.stats.Retried++
		s.logf("serve: %s requeued (attempt %d/%d)", p.fp, p.attempts, s.cfg.MaxAttempts)
		s.requeueLocked(p)
		return
	}
	s.stats.Quarantined++
	canon := &sweep.Record{Fingerprint: p.fp,
		Err: fmt.Sprintf("quarantined after %d attempts: %s", p.attempts, reason)}
	s.logf("serve: %s %s", p.fp, canon.Err)
	s.markDoneLocked(p, canon)
}

// popLocked removes the next queued point; requeue tombstones (entries
// whose state moved on) are skipped.
func (s *Server) popLocked() *point {
	for len(s.queue) > 0 {
		p := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if p.state == pQueued {
			return p
		}
	}
	return nil
}

// waitLease blocks until a point can be leased, the wait budget runs
// out (wait >= 0), or ctx/the server ends. A draining server grants
// nothing. embedded leases carry no expiry and are exempt from the
// janitor.
func (s *Server) waitLease(ctx context.Context, wait time.Duration, embedded bool) (*Lease, *point) {
	var deadline time.Time
	if wait >= 0 {
		deadline = time.Now().Add(wait)
	}
	for {
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			return nil, nil
		}
		if p := s.popLocked(); p != nil {
			id := newID()
			p.state = pLeased
			p.leaseID = id
			p.attempts++
			s.stats.Attempts++
			if embedded {
				p.expiry = time.Time{}
			} else {
				p.expiry = time.Now().Add(s.cfg.LeaseTTL)
			}
			s.leases[id] = p
			l := &Lease{ID: id, Fingerprint: p.fp, Attempt: p.attempts,
				TTLMS: s.cfg.LeaseTTL.Milliseconds(), Scenario: p.scenarioJSON}
			s.mu.Unlock()
			return l, p
		}
		ch := s.qnotify
		s.mu.Unlock()

		var timeout <-chan time.Time
		var timer *time.Timer
		if wait >= 0 {
			rem := time.Until(deadline)
			if rem <= 0 {
				return nil, nil
			}
			timer = time.NewTimer(rem)
			timeout = timer.C
		}
		stop := false
		select {
		case <-ch:
		case <-timeout:
			stop = true
		case <-s.drainCh:
			stop = true
		case <-s.closing:
			stop = true
		case <-ctx.Done():
			stop = true
		}
		if timer != nil {
			timer.Stop()
		}
		if stop {
			return nil, nil
		}
	}
}

// requeueLocked returns a leased point to the queue.
func (s *Server) requeueLocked(p *point) {
	if p.leaseID != "" {
		delete(s.leases, p.leaseID)
		p.leaseID = ""
	}
	if p.state != pDone {
		p.state = pQueued
		s.queue = append(s.queue, p)
		close(s.qnotify)
		s.qnotify = make(chan struct{})
	}
}

// runEmbedded is one embedded worker: lease, replay, complete, repeat.
func (s *Server) runEmbedded(ctx context.Context) {
	defer s.wg.Done()
	for {
		_, p := s.waitLease(ctx, -1, true)
		if p == nil {
			return
		}
		if ctx.Err() != nil {
			s.mu.Lock()
			s.requeueLocked(p)
			s.mu.Unlock()
			return
		}
		rec := runScenario(ctx, p.scenario)
		rec.Fingerprint = p.fp
		if err := s.complete(p, rec); err != nil {
			// The replay succeeded but the store write failed; requeue so
			// the result is not silently lost.
			s.mu.Lock()
			s.requeueLocked(p)
			s.mu.Unlock()
		}
	}
}

// replayFunc executes one scenario; tests swap it to inject failures and
// panics on demand.
var replayFunc = func(ctx context.Context, sc *scenario.Scenario) (*core.Result, error) {
	return sc.Run(ctx)
}

// safeRun is replayFunc with panics recovered into errors: a poisoned
// scenario must cost its point (and its retry budget), never the worker
// process or the server.
func safeRun(ctx context.Context, sc *scenario.Scenario) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("replay panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return replayFunc(ctx, sc)
}

// runScenario replays one scenario into a canonical record.
func runScenario(ctx context.Context, sc *scenario.Scenario) *sweep.Record {
	res, err := safeRun(ctx, sc)
	rec := &sweep.Record{Replay: res}
	if err != nil {
		rec.Replay = nil
		rec.Err = err.Error()
	}
	return rec
}

// runJanitor reclaims expired leases, quarantining points whose retry
// budget is spent instead of requeueing them forever.
func (s *Server) runJanitor(ctx context.Context) {
	defer s.wg.Done()
	tick := s.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.mu.Lock()
			for id, p := range s.leases {
				if p.expiry.IsZero() || now.Before(p.expiry) {
					continue
				}
				s.stats.ExpiredLeases++
				s.logf("serve: lease %s on %s expired", id, p.fp)
				reason := "worker never reported back"
				if p.lastErr != "" {
					reason = p.lastErr
				}
				s.retryLocked(p, reason)
			}
			s.mu.Unlock()
		}
	}
}

// --- HTTP handlers ---

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The strict decoder rejects typoed fields with an error naming them;
	// expansion validates every point before anything is enqueued.
	sw, err := sweep.ReadSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	points, err := sw.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, resp, err := s.register(sw, points)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.logf("serve: sweep %s (%s): %d points, %d cached, %d merged, %d pending",
		run.id, sw.Name, resp.Points, resp.Cached, resp.Merged, resp.Pending)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run := s.sweeps[r.PathValue("id")]
	if run == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "serve: unknown sweep %q", r.PathValue("id"))
		return
	}
	st := SweepStatus{ID: run.id, Name: run.name, Points: len(run.points),
		Done: len(run.order), Failed: run.failed}
	for _, c := range run.cached {
		if c {
			st.Cached++
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck
}

// recordLocked renders the run's idx-th grid point with the sweep's own
// metadata around the shared canonical result. seq is the record's
// 1-based position in the completion order.
func (run *sweepRun) recordLocked(s *Server, idx, seq int) *sweep.Record {
	pt := run.points[idx]
	canon := s.points[pt.Fingerprint].record
	return &sweep.Record{
		Sweep:       run.name,
		Index:       pt.Index,
		Name:        pt.Scenario.Name,
		Fingerprint: pt.Fingerprint,
		Seq:         int64(seq),
		Values:      pt.Values,
		Labels:      pt.Labels,
		Cached:      run.cached[idx],
		Replay:      canon.Replay,
		Err:         canon.Err,
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if run == nil {
		httpError(w, http.StatusNotFound, "serve: unknown sweep %q", r.PathValue("id"))
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > len(run.points) {
			httpError(w, http.StatusBadRequest, "serve: bad after=%q (sweep has %d points)", v, len(run.points))
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Tireplay-Points", strconv.Itoa(len(run.points)))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := after
	for {
		s.mu.Lock()
		var recs []*sweep.Record
		for ; next < len(run.order); next++ {
			recs = append(recs, run.recordLocked(s, run.order[next], next+1))
		}
		done := len(run.order) == len(run.points)
		ch := run.notify
		s.mu.Unlock()

		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return // client went away
			}
		}
		if flusher != nil && len(recs) > 0 {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}

// maxLeaseWait caps long-poll holds so a dead client's request cannot
// pin a connection forever.
const maxLeaseWait = 30 * time.Second

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "serve: decoding lease request: %v", err)
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	l, _ := s.waitLease(r.Context(), wait, false)
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.logf("serve: leased %s to %s (lease %s, attempt %d)", l.Fingerprint, req.Worker, l.ID, l.Attempt)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l) //nolint:errcheck
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	p := s.leases[id]
	if p != nil {
		p.expiry = time.Now().Add(s.cfg.LeaseTTL)
	}
	s.mu.Unlock()
	if p == nil {
		httpError(w, http.StatusNotFound, "serve: unknown or expired lease %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var res WorkerResult
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		httpError(w, http.StatusBadRequest, "serve: decoding result: %v", err)
		return
	}
	if res.Fingerprint == "" || (res.Replay == nil && res.Err == "") {
		httpError(w, http.StatusBadRequest, "serve: result needs a fingerprint and a replay or an error")
		return
	}
	s.mu.Lock()
	p := s.points[res.Fingerprint]
	s.mu.Unlock()
	if p == nil {
		httpError(w, http.StatusNotFound, "serve: unknown fingerprint %q", res.Fingerprint)
		return
	}
	if err := s.complete(p, &sweep.Record{Fingerprint: res.Fingerprint, Replay: res.Replay, Err: res.Err}); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats()) //nolint:errcheck
}
