// Package cli is the campaign front end the command-line tools (ipas,
// flipit, experiments) share: the campaign flags they all take, the
// interrupt and deadline context, core.CampaignControls built from those
// flags, the -journal checkpoint directory, and one stage-aware progress
// printer. Each command keeps only its own flags and output.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/core"
	"ipas/internal/fault"
)

// Flags holds the campaign flags every command registers.
type Flags struct {
	MaxRetries    int
	Shards        int
	Watchdog      time.Duration
	Remote        string
	Progress      bool
	Sections      bool
	Coverage      int
	MaxPerSection int
	ErrorModel    string
	Deadline      time.Duration
}

// Register defines the shared campaign flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.MaxRetries, "max-retries", 2, "per-trial retries after infrastructure errors (0 = none)")
	fs.IntVar(&f.Shards, "shards", 1, "journal shards per campaign; >1 checkpoints each campaign as per-shard journals plus merged.jsonl (the campaignd layout); results are bit-identical")
	fs.DurationVar(&f.Watchdog, "watchdog", 0, "per-MPI-op wall-clock watchdog in every campaign (0 = interpreter default)")
	fs.StringVar(&f.Remote, "remote", "", "campaignd coordinator URL; run the campaigns a spec can express there (flipit's campaign, each workflow's collection campaign) and the rest locally")
	fs.BoolVar(&f.Progress, "progress", false, "report per-stage progress on stderr")
	fs.BoolVar(&f.Sections, "sections", false, "run campaigns sectioned: stratify trials over IR sections; the per-section allocation replaces the trial count, and fingerprint-keyed journals make re-runs after an edit re-inject only changed sections")
	fs.IntVar(&f.Coverage, "coverage", 1, "sectioned coverage factor: expected injections per exercised site per section")
	fs.IntVar(&f.MaxPerSection, "max-per-section", 0, "cap on any one section's trial budget (0 = engine default)")
	fs.StringVar(&f.ErrorModel, "error-model", "", "error model for injected faults: single-bit (default), burst-N, random-N, correlated, sticky")
	fs.DurationVar(&f.Deadline, "deadline", 0, "wall-clock budget for the run (0 = none)")
	return f
}

// Context derives the run's context from ctx: Ctrl-C or SIGTERM cancels
// it, and so does the end of -deadline. Campaigns journal each trial as
// it finishes, so a cancelled run has already checkpointed its work.
func (f *Flags) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	if f.Deadline <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, f.Deadline)
	return ctx, func() { cancel(); stop() }
}

// Controls builds the campaign controls the flags describe. With
// -remote it sets the coordinator client; the command supplies
// RemoteSpec, because only it knows which stages a spec can express.
// Progress lines go to w prefixed with prog.
func (f *Flags) Controls(prog string, w io.Writer) (*core.CampaignControls, error) {
	model, err := fault.ParseModel(f.ErrorModel)
	if err != nil {
		return nil, err
	}
	cc := &core.CampaignControls{
		Model:           model,
		MaxRetries:      fault.ExplicitRetries(f.MaxRetries),
		Shards:          f.Shards,
		Watchdog:        f.Watchdog,
		Sections:        f.Sections,
		SectionCoverage: f.Coverage,
		MaxPerSection:   f.MaxPerSection,
	}
	if f.Remote != "" {
		cc.Remote = &campaign.Client{Base: f.Remote}
	}
	if f.Progress {
		cc.Progress = Printer(prog, w)
	}
	return cc, nil
}

// Checkpoint opens the -journal checkpoint directory dir (one journal,
// shard directory or section directory per stage), or returns nil when
// dir is empty. Without resume, stages whose journals already hold
// trials are refused when they open.
func Checkpoint(prog, dir string, resume bool, w io.Writer) (*core.Checkpoint, error) {
	if dir == "" {
		if resume {
			return nil, errors.New("-resume requires -journal")
		}
		return nil, nil
	}
	cp, err := core.NewCheckpoint(dir, resume)
	if err != nil {
		return nil, err
	}
	if resume {
		fmt.Fprintf(w, "%s: resuming from checkpoint directory %s\n", prog, dir)
	}
	return cp, nil
}

// Interrupted tells the user where an interrupted run's progress went.
func Interrupted(w io.Writer, prog, dir string) {
	if dir != "" {
		fmt.Fprintf(w, "%s: checkpoint saved; rerun with -journal %s -resume to continue\n", prog, dir)
	} else {
		fmt.Fprintf(w, "%s: no -journal was set, so this partial progress is lost on exit\n", prog)
	}
}

// Printer returns a CampaignControls.Progress callback that writes a
// line to w for a stage's first tally, each time its tally crosses into
// a further tenth of the stage's total, and at completion. Tallies may
// jump — a coordinator is polled, and concurrent workers settle trials
// out of step — so the printer compares tenths instead of testing done
// for exact multiples. Safe for concurrent use.
func Printer(prog string, w io.Writer) func(stage string, done, total, failed, deadlocked int) {
	type tally struct{ done, total, tenth int }
	var (
		mu      sync.Mutex
		printed = map[string]tally{}
	)
	return func(stage string, done, total, failed, deadlocked int) {
		tenth := 10
		if total > 0 {
			tenth = min(10*done/total, 10)
		}
		mu.Lock()
		defer mu.Unlock()
		// A lower done or another total means the stage ran again (a
		// resumed or repeated campaign): start its tenths afresh.
		if last, ok := printed[stage]; ok && done >= last.done && total == last.total && tenth <= last.tenth {
			return
		}
		printed[stage] = tally{done, total, tenth}
		what := "trials"
		// Stage names may carry a prefix ("FFT: train IPAS").
		if strings.Contains(stage, "train") {
			what = "grid points"
		}
		line := fmt.Sprintf("%s: %s: %d/%d %s", prog, stage, done, total, what)
		if failed > 0 {
			line += fmt.Sprintf(", %d failed (excluded from proportions)", failed)
		}
		if deadlocked > 0 {
			line += fmt.Sprintf(", %d deadlocked", deadlocked)
		}
		fmt.Fprintln(w, line)
	}
}
