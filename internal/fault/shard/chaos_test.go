package shard

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ipas/internal/fault"
)

// cancelAfter returns a context cancelled once the campaign's progress
// callback has fired `after` times, wired into c.Progress.
func cancelAfter(c *fault.Campaign, after int64) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	c.Progress = func(d, total, failed, deadlocked int) {
		if done.Add(1) >= after {
			cancel()
		}
	}
	return ctx
}

// TestChaosCrashResumeBitIdentical is the chaos gauntlet: a campaign
// is killed mid-flight twice, its journals are mutilated between
// resumes — a torn tail (process killed mid-write), a wholesale
// corrupt shard journal, a deleted shard journal. The survivor must be
// bit-identical, result and merged journal both, to an uninterrupted
// single-loop campaign.
func TestChaosCrashResumeBitIdentical(t *testing.T) {
	const seed, n, shards = 31, 60, 6
	refRes, refJournal := referenceRun(t, seed, n)
	dir := t.TempDir()
	campaign := func() *fault.Campaign {
		c := testCampaign(t, seed)
		c.Workers = 3
		return c
	}

	// Leg 1: kill after ~10 trials.
	c := campaign()
	ctx := cancelAfter(c, 10)
	if _, err := c.RunSharded(ctx, n, shards, dir); err != context.Canceled {
		t.Fatalf("leg 1 returned %v, want context.Canceled", err)
	}

	// Chaos: a torn tail on shard 0 (the journal's own crash-recovery
	// drops it) and a half-overwritten, structurally corrupt journal on
	// shard 1 (the sharded engine deletes it and re-runs the shard).
	torn := filepath.Join(dir, fault.ShardJournalName(0))
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":999,"trial":{"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	corrupt := filepath.Join(dir, fault.ShardJournalName(1))
	if err := os.WriteFile(corrupt, []byte("{\"meta\":{\"format\":\"bogus-v9\"}}\n{\"t\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Leg 2: kill again after ~15 more trials.
	c = campaign()
	ctx = cancelAfter(c, 15)
	if _, err := c.RunSharded(ctx, n, shards, dir); err != context.Canceled {
		t.Fatalf("leg 2 returned %v, want context.Canceled", err)
	}

	// Chaos: lose shard 2's journal entirely.
	if err := os.Remove(filepath.Join(dir, fault.ShardJournalName(2))); err != nil {
		t.Fatal(err)
	}

	// Leg 3: run to completion.
	res, err := campaign().RunSharded(context.Background(), n, shards, dir)
	if err != nil {
		t.Fatalf("final leg failed: %v", err)
	}
	assertSameResult(t, res, refRes)
	assertMergedJournal(t, dir, refJournal)
}
