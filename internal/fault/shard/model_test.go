package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipas/internal/fault"
)

// TestModelShardCountInvariance extends the shard-count invariance to
// every built-in error model: each shard count must reproduce the
// single-loop engine's result and merged journal bit for bit, which is
// only possible if the per-trial model draws survive partitioning.
func TestModelShardCountInvariance(t *testing.T) {
	const seed, n = 29, 36
	for _, model := range fault.BuiltinModels() {
		t.Run(model.Name(), func(t *testing.T) {
			ref := testCampaign(t, seed)
			ref.Model = model
			refPath := filepath.Join(t.TempDir(), "ref.jsonl")
			j, err := fault.OpenJournal(refPath)
			if err != nil {
				t.Fatal(err)
			}
			ref.Journal = j
			ref.Workers = 1
			refRes, err := ref.RunContext(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			refJournal, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}

			for _, k := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					dir := t.TempDir()
					c := testCampaign(t, seed)
					c.Model = model
					c.Workers = 2
					res, err := c.RunSharded(context.Background(), n, k, dir)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, res, refRes)
					assertMergedJournal(t, dir, refJournal)
				})
			}
		})
	}
}

// TestShardJournalUnknownModelFailsShard: a shard journal whose header
// names a model this build does not know must refuse admission
// (ErrCampaignMismatch path), not silently re-run the shard's trials
// under the default model.
func TestShardJournalUnknownModelFailsShard(t *testing.T) {
	const seed, n = 29, 20
	dir := t.TempDir()
	c := testCampaign(t, seed)
	c.Workers = 2
	if _, err := c.RunSharded(context.Background(), n, 2, dir); err != nil {
		t.Fatal(err)
	}

	// Stamp an unknown model into shard 0's header, keeping the rest of
	// the journal intact so only the model mismatches.
	path := filepath.Join(dir, fault.ShardJournalName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	var rec struct {
		Meta *fault.JournalMeta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Meta == nil {
		t.Fatalf("shard journal %s: malformed header (err=%v)", path, err)
	}
	rec.Meta.Model = "future-model-v9"
	hdr, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(string(hdr)+"\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the merged journal so the resume actually re-opens the
	// per-shard journals.
	if err := os.Remove(fault.MergedJournalPath(dir)); err != nil {
		t.Fatal(err)
	}

	c2 := testCampaign(t, seed)
	c2.Workers = 2
	_, err = c2.RunSharded(context.Background(), n, 2, dir)
	if err == nil {
		t.Fatal("sharded resume accepted a journal naming an unknown model")
	}
	if !errors.Is(err, fault.ErrCampaignMismatch) && !strings.Contains(err.Error(), "future-model-v9") {
		t.Fatalf("sharded resume failed with %v, want the unknown-model mismatch", err)
	}
}
