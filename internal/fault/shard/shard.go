// Package shard executes a fault-injection campaign as K
// failure-isolated shards on a work-stealing scheduler.
//
// A campaign's trial space is a pure index partition: trial t's plan
// is a pure function of (Seed, t) (see fault.Prepared.Plans), so
// splitting [0, n) into K contiguous ranges changes nothing about what
// any trial executes — only where and when. Each shard is a failure
// domain: a shard attempt that panics, outlives its watchdog, or fails
// its journal is quarantined and re-queued with backoff, and only
// after its retry budget is exhausted are its unexecuted trials
// recorded as TrialFailed — its siblings never notice either way.
//
// With a journal directory configured, every shard streams finished
// trials into its own JSONL journal (the PR 1 format plus a shard
// header), and a completed campaign additionally writes a canonical
// merged journal byte-identical to the one the single-loop engine
// (Workers=1) writes. Killing the process at any point and calling Run
// again resumes from the per-shard journals — torn tails are dropped,
// a missing or corrupt shard journal just re-runs that shard — and
// reproduces the uninterrupted result bit for bit.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ipas/internal/fault"
	"ipas/internal/interp"
)

// Options configures sharded execution. The zero value runs one shard
// on a GOMAXPROCS-worker scheduler with default quarantine retries and
// no journaling — behaviorally the single-loop engine.
type Options struct {
	// Shards partitions the trial space into this many contiguous
	// index ranges (default 1, capped at the trial count). Results are
	// bit-identical for every shard count.
	Shards int
	// Workers bounds scheduler goroutines (default GOMAXPROCS, capped
	// at the shard count). Results are bit-identical for every worker
	// count.
	Workers int
	// Retries bounds shard-level quarantine retries: how many times a
	// shard that panicked, expired its watchdog, or failed a journal
	// write is re-queued before its unexecuted trials are recorded as
	// TrialFailed. Zero selects fault.DefaultMaxRetries; use
	// fault.NoRetries to request zero. (Per-trial infrastructure
	// retries remain the campaign's MaxRetries and do not quarantine
	// the shard.)
	Retries int
	// Backoff is the base quarantine delay: re-queue k waits
	// Backoff << (k-1) (default 10ms). Cancellation interrupts it.
	Backoff time.Duration
	// Watchdog bounds one shard attempt's wall-clock time (0 = none).
	// Expiry quarantines the attempt; trials finished before it are
	// already recorded (and journaled), so the retry resumes where the
	// attempt stopped instead of repeating work.
	Watchdog time.Duration
	// Dir, when non-empty, is the journal directory: one JSONL journal
	// per shard (shard-0000.jsonl, ...) plus the canonical
	// merged.jsonl once the campaign completes. It makes the campaign
	// crash-tolerant: a re-run with the same options resumes from the
	// shard journals and is bit-identical to an uninterrupted run.
	Dir string
	// Progress matches fault.Campaign.Progress: invoked (serialized)
	// after every finished trial with campaign-wide tallies. When nil,
	// the campaign's own Progress is used.
	Progress func(done, total, failed, deadlocked int)

	// beforeShard is a test hook invoked at the start of every shard
	// attempt; panics it raises exercise the quarantine path.
	beforeShard func(shard, attempt int)
}

// Range returns shard s's trial-index range [lo, hi) in the
// deterministic contiguous partition of n trials into k shards: ranges
// differ in size by at most one and cover [0, n) exactly.
func Range(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// mergedJournalName is the canonical merged journal inside Options.Dir.
const mergedJournalName = "merged.jsonl"

// JournalName returns the file name of shard s's journal inside
// Options.Dir.
func JournalName(s int) string { return fmt.Sprintf("shard-%04d.jsonl", s) }

// MergedJournalPath returns the canonical merged journal's path for a
// journal directory.
func MergedJournalPath(dir string) string { return filepath.Join(dir, mergedJournalName) }

// errCancelled marks a shard attempt interrupted by campaign
// cancellation: the shard is neither terminal nor quarantined, and its
// remaining trials stay pending for resume.
var errCancelled = errors.New("shard: campaign cancelled")

// Run executes the golden run plus n injection trials of campaign c,
// sharded per opts. The campaign's Prog/Verify/Config/Seed/HangFactor/
// MaxRetries/RetryBackoff fields apply per trial exactly as in the
// single-loop engine; its Workers field and Journal are ignored here
// (scheduling is opts.Workers, journaling is opts.Dir).
//
// The contract matches Campaign.RunContext — a non-nil result accounts
// for all n trials, cancellation returns the partial result with
// ctx.Err(), per-trial failures are joined into the returned error —
// with one addition: the result (and the merged journal) is
// bit-identical to the single-loop engine's for every shard count and
// worker count, including runs interrupted and resumed any number of
// times.
func Run(ctx context.Context, c *fault.Campaign, n int, opts Options) (*fault.CampaignResult, error) {
	if n < 0 {
		n = 0
	}
	k := opts.Shards
	if k <= 0 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	if n == 0 {
		k = 1
	}

	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	plans := prep.Plans(n)
	e := &engine{
		prep:     prep,
		plans:    plans,
		out:      prep.NewResult(plans),
		n:        n,
		k:        k,
		opts:     opts,
		meta:     prep.Meta(n),
		journals: make([]*fault.Journal, k),
	}
	if e.opts.Progress == nil {
		e.opts.Progress = c.Progress
	}
	if opts.Dir != "" {
		if e.journals, _, err = OpenDir(opts.Dir, e.meta, k, e.out.Trials); err != nil {
			return nil, err
		}
		defer e.closeJournals()
	}
	for _, tr := range e.out.Trials {
		if tr.Status != fault.TrialPending {
			e.done++
		}
		if tr.Status == fault.TrialFailed {
			e.failed++
		}
		if tr.Deadlock != "" {
			e.deadlocked++
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	retries := opts.Retries
	switch {
	case retries < 0:
		retries = 0
	case retries == 0:
		retries = fault.DefaultMaxRetries
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}

	sched := newScheduler(workers, k)
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			sched.stop()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				sh, attempt, ok := sched.next(w)
				if !ok {
					return
				}
				err := e.runShard(ctx, sh, attempt)
				switch {
				case err == nil:
					sched.finish(sh)
				case errors.Is(err, errCancelled):
					// The scheduler is stopping; the shard stays
					// non-terminal and resumes from its journal.
				case attempt > retries:
					e.failShard(sh, attempt, err)
					sched.fail(sh)
				default:
					sched.requeue(w, sh, backoff<<(attempt-1))
				}
			}
		}(w)
	}
	wg.Wait()
	sched.stop() // release any backoff timers left by a cancellation

	var errs []error
	if ferr := e.out.Finalize(); ferr != nil {
		errs = append(errs, ferr)
	}
	e.mu.Lock()
	jerr := e.jerr
	e.mu.Unlock()
	if opts.Dir != "" && ctx.Err() == nil && e.out.Pending == 0 && jerr == nil {
		if err := fault.WriteCanonical(MergedJournalPath(opts.Dir), e.meta, e.out.Trials); err != nil {
			errs = append(errs, err)
		}
	}
	if jerr != nil {
		errs = append(errs, fmt.Errorf("fault: journal write: %w", jerr))
	}
	if err := ctx.Err(); err != nil {
		return e.out, err
	}
	if len(errs) > 0 {
		return e.out, errors.Join(errs...)
	}
	return e.out, nil
}

// engine is one Run invocation's state. Trials land in out.Trials
// (disjoint indices per shard) and the tallies/journals are serialized
// by mu, mirroring the single-loop engine's finish path.
type engine struct {
	prep  *fault.Prepared
	plans []interp.FaultPlan
	out   *fault.CampaignResult
	n, k  int
	opts  Options
	meta  fault.JournalMeta // merged-journal (campaign-wide) header

	mu         sync.Mutex
	done       int
	failed     int
	deadlocked int
	journals   []*fault.Journal
	jerr       error
}

// runShard executes one attempt of shard sh: every not-yet-settled
// trial in its range, in index order. Any panic — the runner's own,
// or one escaping a hook — converts into a quarantine error.
func (e *engine) runShard(ctx context.Context, sh, attempt int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("shard runner panic: %v", p)
		}
	}()
	if e.opts.beforeShard != nil {
		e.opts.beforeShard(sh, attempt)
	}
	sctx := ctx
	if e.opts.Watchdog > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, e.opts.Watchdog)
		defer cancel()
	}
	lo, hi := Range(e.n, e.k, sh)
	for t := lo; t < hi; t++ {
		if e.settled(t) {
			continue // restored from the journal, or an earlier attempt
		}
		tr := e.prep.RunTrial(sctx, t, e.plans[t])
		if tr.Status == fault.TrialPending {
			// RunTrial only leaves a trial pending on cancellation:
			// the campaign's, or this attempt's watchdog.
			if ctx.Err() != nil {
				return errCancelled
			}
			return fmt.Errorf("shard watchdog (%v) expired at trial %d", e.opts.Watchdog, t)
		}
		if jerr := e.record(sh, t, tr); jerr != nil {
			return fmt.Errorf("journal write: %w", jerr)
		}
	}
	return nil
}

// settled reports whether trial t already has a terminal record.
func (e *engine) settled(t int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.out.Trials[t].Status != fault.TrialPending
}

// record lands one finished trial: result slot, shard journal, and
// progress callback, serialized exactly like the single-loop finish
// path. The journal error is returned so the shard can quarantine on a
// failing disk instead of silently dropping its checkpoint.
func (e *engine) record(sh, t int, tr fault.Trial) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out.Trials[t] = tr
	e.done++
	if tr.Status == fault.TrialFailed {
		e.failed++
	}
	if tr.Deadlock != "" {
		e.deadlocked++
	}
	var jerr error
	if j := e.journals[sh]; j != nil {
		jerr = j.Record(t, tr)
		if jerr != nil && e.jerr == nil {
			e.jerr = jerr
		}
	}
	if e.opts.Progress != nil {
		e.opts.Progress(e.done, e.n, e.failed, e.deadlocked)
	}
	return jerr
}

// failShard records a terminally quarantined shard's unexecuted trials
// as TrialFailed carrying the quarantine cause — the shard-level
// analogue of a trial exhausting its retries. Already-settled trials
// (earlier attempts, journal restores) keep their real results.
func (e *engine) failShard(sh, attempts int, cause error) {
	lo, hi := Range(e.n, e.k, sh)
	msg := fmt.Sprintf("shard %d/%d quarantined after %d attempts: %v", sh, e.k, attempts, cause)
	for t := lo; t < hi; t++ {
		if e.settled(t) {
			continue
		}
		tr := fault.Trial{
			Site: -1, Bit: e.plans[t].Bit, Index: e.plans[t].Index,
			Status: fault.TrialFailed, Err: msg, Attempts: attempts,
		}
		// Journal write errors are unactionable here: the shard is
		// already terminally failed, and the verdict is re-derived on
		// resume if it never reached disk.
		e.record(sh, t, tr)
	}
}

// OpenDir binds journal directory dir (created if missing) to a
// k-shard campaign whose merged-journal header is meta, settling every
// durable record into trials (one slot per campaign trial). A completed
// run's merged journal is restored first; then each shard journal is
// opened under fault.OpenOrRebuild's recovery table with its shard
// header layered onto meta. recovered lists the shards whose corrupt
// journal was rebuilt, so they re-run from scratch. On error no journal
// is left open. The in-process engine (Run) and the campaign
// coordinator both open their directories through it, which is what
// lets either resume the other's checkpoints.
func OpenDir(dir string, meta fault.JournalMeta, k int, trials []fault.Trial) (journals []*fault.Journal, recovered []int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: creating journal dir: %w", err)
	}
	n := len(trials)
	settle := func(prev map[int]fault.Trial, lo, hi int) {
		for t, tr := range prev {
			if t >= lo && t < hi && tr.Status != fault.TrialPending {
				trials[t] = tr
			}
		}
	}
	// A completed run's merged journal settles everything at once. A
	// corrupt one is deleted (completion rewrites it from the shard
	// journals); a foreign one is refused.
	merged := MergedJournalPath(dir)
	if _, err := os.Stat(merged); err == nil {
		j, prev, rebuilt, err := fault.OpenOrRebuild(merged, meta)
		if err != nil {
			return nil, nil, err
		}
		if err := j.Close(); err != nil {
			return nil, nil, err
		}
		if rebuilt {
			if err := os.Remove(merged); err != nil {
				return nil, nil, err
			}
		}
		settle(prev, 0, n)
	}
	journals = make([]*fault.Journal, k)
	for s := 0; s < k; s++ {
		lo, hi := Range(n, k, s)
		m := meta
		m.Shards, m.Shard, m.ShardStart, m.ShardEnd = k, s, lo, hi
		j, prev, rebuilt, err := fault.OpenOrRebuild(filepath.Join(dir, JournalName(s)), m)
		if err != nil {
			for _, j := range journals[:s] {
				j.Close()
			}
			return nil, nil, err
		}
		journals[s] = j
		if rebuilt {
			recovered = append(recovered, s)
		}
		settle(prev, lo, hi)
	}
	return journals, recovered, nil
}

// closeJournals closes every open shard journal; the files stay on
// disk for resume.
func (e *engine) closeJournals() {
	for i, j := range e.journals {
		if j != nil {
			j.Close()
			e.journals[i] = nil
		}
	}
}
