package fault

import (
	"context"
	"errors"
	"testing"
)

// Sectioned progress goes through the same trial runner as plain
// campaigns, so it tallies infrastructure failures: the last Progress
// call of a run in which one trial exhausted its retries must report
// that failure and account for every trial.
func TestRunSectionsProgressReportsFailures(t *testing.T) {
	c := sectionedCampaign(t, 2)
	c.MaxRetries = NoRetries
	c.beforeTrial = func(trial, attempt int) {
		if trial == 1 {
			panic("injected harness failure")
		}
	}
	var last [4]int
	calls := 0
	c.Progress = func(done, total, failed, deadlocked int) {
		last = [4]int{done, total, failed, deadlocked}
		calls++
	}
	prep, err := c.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunSections(context.Background(), t.TempDir())
	if res == nil {
		t.Fatalf("RunSections returned no result: %v", err)
	}
	if err == nil || res.Failed != 1 {
		t.Fatalf("failed=%d err=%v, want one failed trial reported", res.Failed, err)
	}
	if calls != res.Plan.Total {
		t.Errorf("Progress called %d times, want %d", calls, res.Plan.Total)
	}
	if done, total, failed := last[0], last[1], last[2]; failed < 1 || done != total || total != res.Plan.Total {
		t.Fatalf("last Progress(done=%d, total=%d, failed=%d), want failed >= 1 and done == total == %d",
			done, total, failed, res.Plan.Total)
	}
}

// A resumed sectioned run counts restored failures in its progress
// tallies too: the failed trial is journaled, restored on the second
// run, and still reported by every Progress call there.
func TestRunSectionsProgressCountsRestoredFailures(t *testing.T) {
	dir := t.TempDir()
	c := sectionedCampaign(t, 2)
	c.MaxRetries = NoRetries
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Workers = 1
	c.beforeTrial = func(trial, attempt int) {
		if trial == 0 {
			panic("injected harness failure")
		}
	}
	c.Progress = func(done, total, failed, deadlocked int) {
		if done >= 3 {
			cancel()
		}
	}
	prep, err := c.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunSections(ctx, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	c2 := sectionedCampaign(t, 2)
	minFailed := -1
	c2.Progress = func(done, total, failed, deadlocked int) {
		if minFailed < 0 || failed < minFailed {
			minFailed = failed
		}
	}
	prep2, err := c2.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := prep2.RunSections(context.Background(), dir)
	if res == nil || res.Restored == 0 || res.Executed == 0 {
		t.Fatalf("resume did not both restore and execute trials: %+v", res)
	}
	if res.Failed != 1 || minFailed != 1 {
		t.Fatalf("resumed run: result failed=%d, smallest Progress failed=%d; want the restored failure counted (1) throughout",
			res.Failed, minFailed)
	}
}
