// Package shard holds black-box tests of sharded campaign execution
// ((*fault.Campaign).RunSharded and the shard-directory layout in
// internal/fault). It has no non-test code: the tests use only the
// fault package's exported API, as the campaign coordinator and
// cmd/flipit do, so they cannot lean on fault's internals.
package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/lang"
)

// shardProg mirrors the fault package's shared test program: 32
// pseudo-random floats reduced to a single sqrt-of-sum-of-squares
// output, verified by exact match so any corruption is SOC.
const shardProg = `
func main() {
	var n int = 32;
	var a *float = malloc_f64(n);
	var seed int = 77;
	for (var i int = 0; i < n; i = i + 1) {
		seed = (seed * 1103515245 + 12345) % 2147483648;
		a[i] = float(seed % 100) / 7.0;
	}
	var s float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		s = s + a[i] * a[i];
	}
	out_f64(0, sqrt(s));
}
`

func testCampaign(t *testing.T, seed int64) *fault.Campaign {
	t.Helper()
	m, err := lang.Compile(shardProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	return &fault.Campaign{Prog: p, Verify: verify, Seed: seed}
}

// referenceRun produces the ground truth every sharded configuration
// must reproduce bit for bit: the single-loop engine with one worker,
// journaling to a file, whose journal bytes are the canonical form.
func referenceRun(t *testing.T, seed int64, n int) (*fault.CampaignResult, []byte) {
	t.Helper()
	c := testCampaign(t, seed)
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	j, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Journal = j
	c.Workers = 1
	res, err := c.RunContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

func assertSameResult(t *testing.T, got, want *fault.CampaignResult) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, got.Trials[i], want.Trials[i])
		}
	}
	if got.Completed != want.Completed || got.Failed != want.Failed ||
		got.Pending != want.Pending || got.Deadlocks != want.Deadlocks ||
		got.Counts != want.Counts || got.GoldenDyn != want.GoldenDyn {
		t.Fatalf("statistics differ: %+v vs %+v", got, want)
	}
}

func assertMergedJournal(t *testing.T, dir string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(fault.MergedJournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged journal differs from the single-loop journal (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 1}, {7, 2}, {7, 7}, {60, 7}, {100, 16}, {5, 5},
	} {
		prev := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := fault.ShardRange(tc.n, tc.k, s)
			if lo != prev {
				t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d (gap or overlap)", tc.n, tc.k, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d k=%d: shard %d has negative range [%d,%d)", tc.n, tc.k, s, lo, hi)
			}
			if size := hi - lo; size > tc.n/tc.k+1 || size < tc.n/tc.k {
				t.Fatalf("n=%d k=%d: shard %d size %d not balanced", tc.n, tc.k, s, size)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d k=%d: partition covers [0,%d), want [0,%d)", tc.n, tc.k, prev, tc.n)
		}
	}
}

// Every shard count × worker count must produce a CampaignResult and a
// merged journal bit-identical to the single-loop engine's.
func TestShardCountInvariance(t *testing.T) {
	const seed, n = 29, 60
	refRes, refJournal := referenceRun(t, seed, n)

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				dir := t.TempDir()
				c := testCampaign(t, seed)
				c.Workers = w
				res, err := c.RunSharded(context.Background(), n, k, dir)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, res, refRes)
				assertMergedJournal(t, dir, refJournal)
			})
		}
	}
}

// Cancelling mid-campaign and resuming from the per-shard journals
// must reproduce the uninterrupted result — for every shard and worker
// count, including resuming with a different worker count.
func TestShardCancelThenResumeInvariance(t *testing.T) {
	const seed, n = 37, 48
	refRes, refJournal := referenceRun(t, seed, n)

	for _, k := range []int{1, 2, 7, n} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", k, w), func(t *testing.T) {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var done atomic.Int64
				c := testCampaign(t, seed)
				c.Workers = w
				c.Progress = func(d, total, failed, deadlocked int) {
					if done.Add(1) >= n/3 {
						cancel()
					}
				}
				res, err := c.RunSharded(ctx, n, k, dir)
				if err != context.Canceled {
					t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
				}
				if res == nil || res.Pending == 0 {
					t.Fatal("cancellation did not interrupt the campaign")
				}
				if _, err := os.Stat(fault.MergedJournalPath(dir)); !os.IsNotExist(err) {
					t.Fatal("interrupted campaign wrote a merged journal")
				}

				// Resume with a different worker count: scheduling
				// must not leak into results.
				c2 := testCampaign(t, seed)
				c2.Workers = w%3 + 1
				res2, err := c2.RunSharded(context.Background(), n, k, dir)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, res2, refRes)
				assertMergedJournal(t, dir, refJournal)
			})
		}
	}
}

// A second campaign pointed at a directory whose shard journals belong
// to a different campaign must refuse rather than clobber them; one
// resumed with a different shard partition must refuse with a message
// naming the cure.
func TestShardJournalOwnership(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	if _, err := testCampaign(t, 5).RunSharded(context.Background(), n, 3, dir); err != nil {
		t.Fatal(err)
	}

	_, err := testCampaign(t, 6).RunSharded(context.Background(), n, 3, dir)
	if err == nil {
		t.Fatal("foreign campaign reused another campaign's journal directory")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("different campaign")) {
		t.Fatalf("foreign-directory error does not say so: %v", err)
	}

	_, err = testCampaign(t, 5).RunSharded(context.Background(), n, 4, dir)
	if err == nil {
		t.Fatal("resume with a different shard partition silently proceeded")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("different shard partition")) {
		t.Fatalf("repartition error does not explain itself: %v", err)
	}

	// The original configuration still resumes (instantly: everything
	// is journaled).
	if _, err := testCampaign(t, 5).RunSharded(context.Background(), n, 3, dir); err != nil {
		t.Fatal(err)
	}
}
