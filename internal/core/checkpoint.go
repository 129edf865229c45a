package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/fault"
	"ipas/internal/svm"
)

// CampaignControls carries the resilience knobs threaded into every
// fault-injection campaign the workflow runs: retry policy, worker
// bound, progress reporting and checkpointing.
type CampaignControls struct {
	// MaxRetries / RetryBackoff configure per-trial retry of
	// infrastructure errors (see fault.Campaign).
	MaxRetries   int
	RetryBackoff time.Duration
	// Workers bounds concurrent trials per campaign (0 = GOMAXPROCS),
	// whatever the shard count.
	Workers int
	// Shards, when > 1, runs each campaign sharded
	// (fault.Campaign.RunSharded): the trial space splits into this
	// many contiguous shards, each checkpointed in its own journal —
	// the layout a campaignd coordinator uses. Results are
	// bit-identical to the single-loop engine for every value.
	Shards int
	// Model selects the error model every campaign's plans are drawn
	// with (nil = single-bit, the paper's model). It rides journal
	// headers and remote specs, so checkpoints and coordinators refuse
	// to mix trials across models.
	Model fault.ErrorModel
	// TrainWorkers bounds concurrent grid-point evaluations during SVM
	// training (0 = GOMAXPROCS). Training results are bit-identical for
	// any worker count.
	TrainWorkers int
	// Watchdog, when > 0, bounds each blocked MPI operation's
	// wall-clock time (interp.Config.Watchdog) in every campaign the
	// workflow runs; 0 keeps the interpreter's default.
	Watchdog time.Duration
	// Remote, when non-nil together with RemoteSpec, dispatches
	// eligible campaigns to a campaignd coordinator instead of running
	// them in-process.
	Remote *campaign.Client
	// RemoteSpec renders a stage as a remote campaign spec, or nil to
	// run that stage locally (graceful degradation: stages a spec
	// cannot express — protected variants do not round-trip through
	// source text — just stay in-process). The returned spec names the
	// program (workload/input/ranks or inline source); Run fills
	// trials, seed, sharding, retry, and watchdog knobs so remote
	// trials are bit-identical to local ones.
	RemoteSpec func(stage string) *campaign.Spec
	// Progress, when non-nil, receives per-campaign progress: stage
	// names the campaign ("collect", "eval IPAS-1", ...), done/total
	// count trials, failed counts infrastructure failures, and
	// deadlocked counts trials whose injected fault hung the job
	// (structural deadlock declared by the MPI rank supervisor).
	Progress func(stage string, done, total, failed, deadlocked int)
	// Checkpoint, when non-nil, supplies one trial journal per
	// campaign so an interrupted workflow resumes from disk.
	Checkpoint *Checkpoint
	// Sections, when true, runs eligible campaigns (single-rank) as
	// sectioned campaigns: the trial space stratifies over IR sections,
	// per-section budgets replace the flat trial count, and — with a
	// Checkpoint — per-section journals keyed by content fingerprint
	// make re-analysis after an edit incremental. Multi-rank campaigns
	// degrade gracefully to the flat engines.
	Sections bool
	// SectionCoverage is the per-section coverage factor (expected
	// injections per exercised site); 0 means 1.
	SectionCoverage int
	// MaxPerSection caps any one section's trial budget (0 = engine
	// default).
	MaxPerSection int
}

// configure copies the per-trial knobs — retry policy, error model,
// watchdog, workers and progress reporting — onto the campaign. Every
// local engine reads them from there.
func (cc *CampaignControls) configure(c *fault.Campaign, stage string) {
	c.MaxRetries = cc.MaxRetries
	c.RetryBackoff = cc.RetryBackoff
	c.Workers = cc.Workers
	if cc.Model != nil {
		c.Model = cc.Model
	}
	if cc.Watchdog > 0 {
		c.Config.Watchdog = cc.Watchdog
	}
	if cc.Progress != nil {
		report := cc.Progress
		c.Progress = func(done, total, failed, deadlocked int) { report(stage, done, total, failed, deadlocked) }
	}
}

// Run executes the golden run plus n injection trials of campaign c
// under the controls: remotely when RemoteSpec renders the stage,
// sectioned when Sections is set (single-rank campaigns), on the sharded
// engine when Shards > 1, and on the single-loop engine otherwise. The
// plain and sharded engines agree on per-trial semantics, results, and
// canonical journal bytes. Each sharded stage checkpoints into its own
// "<stage>.shards" directory (one journal per shard plus the canonical
// merged journal) instead of a single "<stage>.jsonl" file.
func (cc *CampaignControls) Run(ctx context.Context, c *fault.Campaign, n int, stage string) (*fault.CampaignResult, error) {
	if cc == nil {
		return c.RunContext(ctx, n)
	}
	if cc.Remote != nil && cc.RemoteSpec != nil {
		if spec := cc.RemoteSpec(stage); spec != nil {
			return cc.runRemote(ctx, c, spec, n, stage)
		}
	}
	cc.configure(c, stage)
	switch {
	case cc.Sections && c.Config.Ranks <= 1:
		return cc.runSectioned(ctx, c, stage)
	case cc.Shards <= 1:
		if cc.Checkpoint != nil {
			j, err := cc.Checkpoint.Journal(stage)
			if err != nil {
				return nil, err
			}
			c.Journal = j
		}
		return c.RunContext(ctx, n)
	}
	var dir string
	if cc.Checkpoint != nil {
		d, err := cc.Checkpoint.ShardDir(stage)
		if err != nil {
			return nil, err
		}
		dir = d
	}
	return c.RunSharded(ctx, n, cc.Shards, dir)
}

// runSectioned runs one campaign on the sectioned engine. The flat
// trial count is superseded by the per-section allocation (coverage
// drives the budget), and checkpointing goes to a per-stage section
// journal directory whose fingerprint-keyed journals make resumption
// incremental across program edits: only sections whose IR changed
// re-execute. Like the other engines it returns the result beside
// per-trial failures, so a degraded stage is reported, not discarded;
// the result's Sections field carries the per-section accounting.
func (cc *CampaignControls) runSectioned(ctx context.Context, c *fault.Campaign, stage string) (*fault.CampaignResult, error) {
	c.Sections = true
	c.Coverage = max(cc.SectionCoverage, 1)
	c.MaxPerSection = cc.MaxPerSection
	var dir string
	if cc.Checkpoint != nil {
		d, err := cc.Checkpoint.SectionDir(stage)
		if err != nil {
			return nil, err
		}
		dir = d
	}
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	res, err := prep.RunSections(ctx, dir)
	if res == nil {
		return nil, err
	}
	return res.CampaignResult, err
}

// runRemote dispatches one campaign to the coordinator and polls it to
// completion. The partial spec from RemoteSpec names the program; the
// controls and campaign fill every knob that pins the plan sequence and
// per-trial behavior, so the coordinator's workers reproduce the local
// engine's trials bit for bit.
func (cc *CampaignControls) runRemote(ctx context.Context, c *fault.Campaign, spec *campaign.Spec, n int, stage string) (*fault.CampaignResult, error) {
	s := *spec
	s.Trials = n
	s.Seed = c.Seed
	s.HangFactor = c.HangFactor
	s.MaxRetries = cc.MaxRetries
	s.Watchdog = cc.Watchdog
	if cc.Model != nil {
		s.Model = fault.ModelName(cc.Model)
	} else if c.Model != nil {
		s.Model = fault.ModelName(c.Model)
	}
	if s.Shards == 0 {
		s.Shards = max(cc.Shards, 1)
	}
	if cc.Sections && max(s.Ranks, 1) <= 1 {
		// Sectioned submission: the coordinator derives the trial
		// count from the allocation, so the flat count stays home.
		s.Sections = true
		s.Coverage = max(cc.SectionCoverage, 1)
		s.MaxPerSection = cc.MaxPerSection
		s.Trials = 0
	}
	s.Normalize()
	sub, _, err := cc.Remote.Submit(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("core: submitting %s to coordinator: %w", stage, err)
	}
	var onProgress func(campaign.Progress)
	if cc.Progress != nil {
		report := cc.Progress
		onProgress = func(p campaign.Progress) { report(stage, p.Done, p.Trials, p.Failed, p.Deadlocked) }
	}
	res, err := cc.Remote.WaitResult(ctx, sub.ID, 0, onProgress)
	if err != nil {
		return nil, fmt.Errorf("core: waiting for %s (campaign %s): %w", stage, sub.ID, err)
	}
	if cc.Progress != nil {
		cc.Progress(stage, res.Completed+res.Failed, len(res.Trials), res.Failed, res.Deadlocks)
	}
	// Match the local engines' contract: per-trial infrastructure
	// failures come back as a joined error beside the complete result.
	if err := res.Finalize(); err != nil {
		return res, err
	}
	return res, nil
}

// SearchOptions renders the controls' training knobs as grid-search
// options, routing per-grid-point progress into Progress under the
// given stage name (training has no failed or deadlocked trials, so
// those counts are 0).
func (cc *CampaignControls) SearchOptions(stage string) svm.SearchOptions {
	if cc == nil {
		return svm.SearchOptions{}
	}
	opts := svm.SearchOptions{Workers: cc.TrainWorkers}
	if cc.Progress != nil {
		report := cc.Progress
		opts.Progress = func(done, total int) { report(stage, done, total, 0, 0) }
	}
	return opts
}

// Checkpoint manages the journal directory of a workflow run: one
// JSONL trial journal per campaign (the collection campaign plus every
// variant's coverage evaluation), named after the campaign's stage.
// Because every campaign draws its plans up front from its seed, a
// workflow resumed from a checkpoint directory produces results
// bit-identical to an uninterrupted run.
type Checkpoint struct {
	// Dir is the journal directory (created on first use).
	Dir string
	// Resume permits reuse of journals that already contain trials.
	// Without it, opening a non-empty journal is an error — a guard
	// against accidentally mixing two different runs' checkpoints.
	Resume bool

	mu   sync.Mutex
	open map[string]*fault.Journal
	subs map[string]*Checkpoint
}

// NewCheckpoint creates the journal directory and returns a checkpoint
// manager rooted there.
func NewCheckpoint(dir string, resume bool) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &Checkpoint{Dir: dir, Resume: resume}, nil
}

// Sub returns a checkpoint rooted in a subdirectory, scoping (say) one
// workload's campaigns inside a suite-level checkpoint so their stage
// names cannot collide. The parent's Close closes the sub's journals.
func (c *Checkpoint) Sub(name string) *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.subs == nil {
		c.subs = map[string]*Checkpoint{}
	}
	key := stageFileName(name)
	if s, ok := c.subs[key]; ok {
		return s
	}
	s := &Checkpoint{Dir: filepath.Join(c.Dir, key), Resume: c.Resume}
	c.subs[key] = s
	return s
}

// Journal opens (once) the journal for the named campaign stage.
func (c *Checkpoint) Journal(stage string) (*fault.Journal, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open == nil {
		c.open = map[string]*fault.Journal{}
	}
	if j, ok := c.open[stage]; ok {
		return j, nil
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	path := filepath.Join(c.Dir, stageFileName(stage)+".jsonl")
	j, err := fault.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if j.Restored() > 0 && !c.Resume {
		j.Close()
		return nil, fmt.Errorf("core: journal %s already holds %d trials; pass resume to continue it (or use a fresh checkpoint dir)",
			path, j.Restored())
	}
	c.open[stage] = j
	return j, nil
}

// ShardDir returns (creating it) the per-shard journal directory for
// the named campaign stage, under the same resume guard as Journal: a
// directory that already holds journals is refused unless Resume is
// set — the shard engine's own header fingerprints then reject any
// journal that is not this exact campaign's.
func (c *Checkpoint) ShardDir(stage string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := filepath.Join(c.Dir, stageFileName(stage)+".shards")
	if !c.Resume {
		if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
			return "", fmt.Errorf("core: shard journal dir %s already holds %d files; pass resume to continue it (or use a fresh checkpoint dir)",
				dir, len(entries))
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: creating shard journal dir: %w", err)
	}
	return dir, nil
}

// SectionDir returns (creating it) the per-section journal directory
// for the named campaign stage. Unlike ShardDir there is no
// non-empty-directory guard: section journals are keyed by content
// fingerprint and self-invalidate when the program, seed, or budget
// changes, so reusing the directory is exactly the incremental
// re-analysis contract — unchanged sections restore, changed ones
// rebuild.
func (c *Checkpoint) SectionDir(stage string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := filepath.Join(c.Dir, stageFileName(stage)+".sections")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: creating section journal dir: %w", err)
	}
	return dir, nil
}

// Close closes every journal the checkpoint opened. The files remain
// on disk for later resume.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.open {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.open, c.subs = nil, nil
	return first
}

// stageFileName maps a stage label onto a safe file name.
func stageFileName(stage string) string {
	var sb strings.Builder
	for _, r := range stage {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "campaign"
	}
	return sb.String()
}
