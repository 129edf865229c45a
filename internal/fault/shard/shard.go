// Package shard executes a fault-injection campaign as K contiguous
// trial-index shards, each with its own journal.
//
// A campaign's trial space is a pure index partition: trial t's plan
// is a pure function of (Seed, t) (see fault.Prepared.Plans), so
// splitting [0, n) into K contiguous ranges changes nothing about what
// any trial executes — only which journal records it. In-process, a
// shard is a journal partition, not a failure domain: every shard is
// one unit of the local trial runner (fault.Prepared.RunUnits), whose
// per-trial panic isolation, retries and hang budget already contain
// every failure a shard could see. Across processes the campaign
// coordinator (internal/campaign) leases the same shards to workers
// and quarantines them through the StateMachine in this package.
//
// With a journal directory configured, every shard streams finished
// trials into its own JSONL journal (the single-loop format plus a
// shard header), and a completed campaign additionally writes a
// canonical merged journal byte-identical to the one the single-loop
// engine (Workers=1) writes. Killing the process at any point and
// calling Run again resumes from the per-shard journals — torn tails
// are dropped, a missing or corrupt shard journal just re-runs that
// shard — and reproduces the uninterrupted result bit for bit. The
// directory layout is the coordinator's, so either engine resumes the
// other's checkpoints.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ipas/internal/fault"
)

// Options configures sharded execution. The zero value runs one shard
// without journaling — behaviorally the single-loop engine. Workers,
// retries and progress reporting are the campaign's own.
type Options struct {
	// Shards partitions the trial space into this many contiguous
	// index ranges (default 1, capped at the trial count). Results are
	// bit-identical for every shard count.
	Shards int
	// Dir, when non-empty, is the journal directory: one JSONL journal
	// per shard (shard-0000.jsonl, ...) plus the canonical
	// merged.jsonl once the campaign completes. It makes the campaign
	// crash-tolerant: a re-run with the same options resumes from the
	// shard journals and is bit-identical to an uninterrupted run.
	Dir string
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

// Run executes the golden run plus n injection trials of campaign c,
// sharded per opts. Every campaign field applies exactly as in
// Campaign.RunContext — trials run on c.Workers goroutines whatever the
// shard count, and c.Progress sees campaign-wide tallies — except
// c.Journal, which is ignored: journaling is opts.Dir.
//
// The contract matches Campaign.RunContext — a non-nil result accounts
// for all n trials, cancellation returns the partial result with
// ctx.Err(), per-trial failures are joined into the returned error —
// with one addition: the result (and the merged journal) is
// bit-identical to the single-loop engine's for every shard count and
// worker count, including runs interrupted and resumed any number of
// times. The merged journal is written only by a run that completes
// every trial without a journal write failure.
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
	out := prep.NewResult(plans)
	meta := prep.Meta(n)
	units := make([]fault.Unit, k)
	for s := range units {
		units[s].Lo, units[s].Hi = Range(n, k, s)
	}
	if opts.Dir != "" {
		journals, _, err := OpenDir(opts.Dir, meta, k, out.Trials)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, j := range journals {
				j.Close() // the files stay on disk for resume
			}
		}()
		for s, j := range journals {
			units[s].Journal = j
		}
	}

	_, err = prep.RunUnits(ctx, plans, out, units)
	if opts.Dir != "" && ctx.Err() == nil && out.Pending == 0 && !errors.Is(err, fault.ErrJournalWrite) {
		if werr := fault.WriteCanonical(MergedJournalPath(opts.Dir), meta, out.Trials); werr != nil {
			err = errors.Join(err, werr)
		}
	}
	return out, err
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
