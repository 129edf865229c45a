package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file holds the shard-directory layout: a campaign's trial space
// split into K contiguous index ranges, each recorded in its own
// journal (the single-loop format plus a shard header), plus the
// canonical merged journal a completed campaign writes. Splitting
// changes nothing about what any trial executes — trial t's plan is a
// pure function of (Seed, t) — only which journal records it. The
// in-process engine (RunSharded) and the campaign coordinator
// (internal/campaign) both open their directories through OpenShardDir,
// so either resumes the other's checkpoints.

// ShardRange returns shard s's trial-index range [lo, hi) in the
// deterministic contiguous partition of n trials into k shards: ranges
// differ in size by at most one and cover [0, n) exactly.
func ShardRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// mergedJournalName is the canonical merged journal inside a shard
// journal directory.
const mergedJournalName = "merged.jsonl"

// ShardJournalName returns the file name of shard s's journal inside a
// shard journal directory.
func ShardJournalName(s int) string { return fmt.Sprintf("shard-%04d.jsonl", s) }

// MergedJournalPath returns the canonical merged journal's path for a
// shard journal directory.
func MergedJournalPath(dir string) string { return filepath.Join(dir, mergedJournalName) }

// RunSharded executes the golden run plus n injection trials of the
// campaign with the trial space split into shards contiguous ranges
// (at least 1, capped at n), each one unit of RunUnits. Every campaign
// field applies exactly as in RunContext — trials run on Workers
// goroutines whatever the shard count, and Progress sees campaign-wide
// tallies — except Journal, which is ignored: journaling is dir.
//
// When dir is non-empty it is the shard journal directory
// (shard-0000.jsonl, ... plus merged.jsonl once the campaign
// completes), which makes the run crash-tolerant: a re-run with the
// same shard count resumes from the shard journals — torn tails are
// dropped, a missing or corrupt shard journal just re-runs that shard.
//
// The contract matches RunContext, with one addition: the result (and
// the merged journal) is bit-identical to the single-loop engine's
// (Workers=1) for every shard count and worker count, including runs
// interrupted and resumed any number of times. The merged journal is
// written only by a run that completes every trial without a journal
// write failure.
func (c *Campaign) RunSharded(ctx context.Context, n, shards int, dir string) (*CampaignResult, error) {
	if n < 0 {
		n = 0
	}
	k := shards
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
	units := make([]Unit, k)
	for s := range units {
		units[s].Lo, units[s].Hi = ShardRange(n, k, s)
	}
	if dir != "" {
		journals, _, err := OpenShardDir(dir, meta, k, out.Trials)
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
	if dir != "" && ctx.Err() == nil && out.Pending == 0 && !errors.Is(err, ErrJournalWrite) {
		if werr := WriteCanonical(MergedJournalPath(dir), meta, out.Trials); werr != nil {
			err = errors.Join(err, werr)
		}
	}
	return out, err
}

// OpenShardDir binds journal directory dir (created if missing) to a
// k-shard campaign whose merged-journal header is meta, settling every
// durable record into trials (one slot per campaign trial). A completed
// run's merged journal is restored first; then each shard journal is
// opened under OpenOrRebuild's recovery table with its shard header
// layered onto meta. recovered lists the shards whose corrupt journal
// was rebuilt, so they re-run from scratch. On error no journal is left
// open.
func OpenShardDir(dir string, meta JournalMeta, k int, trials []Trial) (journals []*Journal, recovered []int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("fault: creating shard journal dir: %w", err)
	}
	n := len(trials)
	settle := func(prev map[int]Trial, lo, hi int) {
		for t, tr := range prev {
			if t >= lo && t < hi && tr.Status != TrialPending {
				trials[t] = tr
			}
		}
	}
	// A completed run's merged journal settles everything at once. A
	// corrupt one is deleted (completion rewrites it from the shard
	// journals); a foreign one is refused.
	merged := MergedJournalPath(dir)
	if _, err := os.Stat(merged); err == nil {
		j, prev, rebuilt, err := OpenOrRebuild(merged, meta)
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
	journals = make([]*Journal, k)
	for s := 0; s < k; s++ {
		lo, hi := ShardRange(n, k, s)
		m := meta
		m.Shards, m.Shard, m.ShardStart, m.ShardEnd = k, s, lo, hi
		j, prev, rebuilt, err := OpenOrRebuild(filepath.Join(dir, ShardJournalName(s)), m)
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
