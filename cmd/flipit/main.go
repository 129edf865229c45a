// Command flipit runs a statistical fault-injection campaign (the
// paper's FlipIt role) against one of the five evaluation workloads and
// prints the outcome proportions of §5.5.
//
// The campaign runs through the front end ipas and experiments use
// (internal/cli, core.CampaignControls.Run) as the stage "campaign".
// Ctrl-C or -deadline expiry stops it with completed trials
// checkpointed under the -journal directory — in DIR/campaign.jsonl,
// in DIR/campaign.shards/ with -shards K > 1 (one journal per shard plus
// merged.jsonl, the campaignd layout), or in DIR/campaign.sections/ with
// -sections — and -resume continues to a result bit-identical to an
// uninterrupted run with the same seed. A journal file or a directory
// in the older flat layouts is refused with the command that migrates
// it. Trials that hit infrastructure errors are retried up to
// -max-retries times and then reported without aborting the campaign.
//
// With -remote URL a campaignd coordinator runs the campaign on its
// ipas-worker fleet; the result printed is bit-identical to the local
// run. With -sections the trial space stratifies over IR sections, each
// with its own budget from -coverage, and the whole-program distribution
// is composed by population weighting; fingerprint-keyed section
// journals make a re-run after a program edit re-inject only the
// sections whose IR changed.
//
// Usage:
//
//	flipit [-workload NAME] [-input N] [-n TRIALS] [-seed S] [-funcs]
//	       [-journal DIR [-resume]] [-deadline D] [-max-retries N]
//	       [-workers N] [-shards K] [-watchdog D]
//	       [-remote URL] [-progress] [-error-model M] [-model-report]
//	       [-sections [-coverage N] [-max-per-section N]]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/cli"
	"ipas/internal/compose"
	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/stats"
	"ipas/internal/workloads"
)

// stage names flipit's one campaign in the checkpoint directory.
const stage = "campaign"

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the campaign, prints
// the report to stdout and diagnostics to stderr, and returns the exit
// status (130 when interrupted).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flipit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "FFT", "workload: CoMD, HPCCG, AMG, FFT, IS, Jacobi, GradDesc")
	input := fs.Int("input", 1, "input level 1..4 (Table 5)")
	n := fs.Int("n", 200, "number of injection trials (ignored with -sections: the per-section allocation sets the budget)")
	seed := fs.Int64("seed", 1, "campaign RNG seed")
	funcs := fs.Bool("funcs", false, "break outcomes down per function")
	journalDir := fs.String("journal", "", "checkpoint directory for the campaign's journals (enables resume)")
	resume := fs.Bool("resume", false, "continue a campaign from an existing -journal checkpoint")
	workers := fs.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS)")
	modelReport := fs.Bool("model-report", false, "compare every built-in error model: unprotected outcome distribution plus DMR detector recall per model (two local campaigns per model; ignores -error-model, -journal, -shards, -remote, -sections)")
	shared := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "flipit:", err)
		return 1
	}

	cc, err := shared.Controls("flipit", stderr)
	if err != nil {
		return fail(err)
	}
	cc.Workers = *workers
	ctx, stop := shared.Context(ctx)
	defer stop()

	spec, err := workloads.Get(*name, *input)
	if err != nil {
		return fail(err)
	}
	m, err := spec.Compile()
	if err != nil {
		return fail(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		return fail(err)
	}

	if *modelReport {
		if err := reportModels(ctx, stdout, m, spec, prog, *n, *seed, *workers, cc.MaxRetries, shared.Watchdog); err != nil {
			return fail(err)
		}
		return 0
	}

	if cc.Remote != nil && *journalDir != "" {
		return fail(errors.New("-remote and -journal are mutually exclusive: remote campaigns journal durably on the coordinator"))
	}
	if shared.Sections && shared.Shards > 1 && cc.Remote == nil {
		return fail(errors.New("-sections journals per section, not per shard; drop -shards (a -remote coordinator shards sectioned campaigns itself)"))
	}
	if err := checkLayout(*journalDir); err != nil {
		return fail(err)
	}
	cp, err := cli.Checkpoint("flipit", *journalDir, *resume, stderr)
	if err != nil {
		return fail(err)
	}
	if cp != nil {
		defer cp.Close()
		cc.Checkpoint = cp
	}
	if cc.Remote != nil {
		wl, in := *name, *input
		cc.RemoteSpec = func(string) *campaign.Spec { return &campaign.Spec{Workload: wl, Input: in, Ranks: 1} }
	}

	c := &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: *seed, Model: cc.Model}
	res, err := cc.Run(ctx, c, *n, stage)
	if res == nil {
		return fail(err)
	}
	secRes := res.Sections
	if cc.Remote != nil && shared.Sections {
		// Re-derive the (deterministic) section plan locally so the
		// remote trials can be composed: plans and populations are a
		// pure function of the spec.
		c.Sections, c.Coverage, c.MaxPerSection = true, max(shared.Coverage, 1), shared.MaxPerSection
		prep, err := c.Prepare(ctx)
		if err != nil {
			return fail(err)
		}
		secRes = &fault.SectionResult{CampaignResult: res, Plan: prep.SectionPlan(), Executed: res.Completed}
		for _, a := range secRes.Plan.Alloc {
			secRes.Stats = append(secRes.Stats, fault.SectionStat{
				Section: a.Section, FP: a.FP, Label: a.Label, Pop: a.Pop, Trials: a.Trials,
			})
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "flipit: interrupted (%v): %d/%d trials completed\n", ctx.Err(), res.Completed, len(res.Trials))
		cli.Interrupted(stderr, "flipit", *journalDir)
	} else if err != nil {
		// Infrastructure failures: the campaign degraded but completed.
		fmt.Fprintf(stderr, "flipit: degraded campaign: %s\n", res.ErrorSummary())
	}
	if res.Completed == 0 {
		if ctx.Err() != nil {
			return 130
		}
		return fail(errors.New("no trials completed"))
	}

	fmt.Fprintf(stdout, "%s input %d (%s): %d/%d injections completed, golden run %d dyn instrs\n",
		*name, *input, spec.InputDesc, res.Completed, len(res.Trials), res.GoldenDyn)
	if secRes != nil {
		printSectioned(stdout, stderr, secRes)
	} else {
		for _, o := range []fault.Outcome{fault.OutcomeSymptom, fault.OutcomeDetected, fault.OutcomeMasked, fault.OutcomeSOC} {
			p := res.Proportion(o)
			fmt.Fprintf(stdout, "  %-9s %6.2f%%  ± %.2f%% (95%%)\n", o, 100*p, 100*stats.MarginOfError95(p, res.Completed))
		}
	}
	if res.Deadlocks > 0 {
		fmt.Fprintf(stdout, "  %d trial(s) deadlocked the job; first attribution:\n", res.Deadlocks)
		for _, tr := range res.Trials {
			if tr.Deadlock != "" {
				fmt.Fprintf(stdout, "    trial site %d bit %d index %d: %s\n", tr.Site, tr.Bit, tr.Index, tr.Deadlock)
				break
			}
		}
	}

	if *funcs {
		siteFn := map[int]string{}
		for _, f := range m.Funcs() {
			for _, b := range f.Blocks() {
				for _, in := range b.Instrs() {
					siteFn[in.SiteID] = f.Name()
				}
			}
		}
		type agg struct{ soc, total int }
		byFn := map[string]*agg{}
		for _, tr := range res.Trials {
			if tr.Status != fault.TrialCompleted {
				continue
			}
			a := byFn[siteFn[tr.Site]]
			if a == nil {
				a = &agg{}
				byFn[siteFn[tr.Site]] = a
			}
			a.total++
			if tr.Outcome == fault.OutcomeSOC {
				a.soc++
			}
		}
		names := make([]string, 0, len(byFn))
		for fn := range byFn {
			names = append(names, fn)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "per-function SOC rate:")
		for _, fn := range names {
			a := byFn[fn]
			fmt.Fprintf(stdout, "  %-16s %3d/%3d trials SOC (%.1f%%)\n",
				"@"+fn, a.soc, a.total, 100*float64(a.soc)/float64(a.total))
		}
	}

	if ctx.Err() != nil {
		return 130
	}
	return 0
}

// printSectioned reports a sectioned campaign: the composed
// whole-program distribution (raw trial proportions would overweight
// cold sections), per-section dispositions, and the incremental-reuse
// accounting.
func printSectioned(stdout, stderr io.Writer, secRes *fault.SectionResult) {
	d, err := compose.Whole(compose.FromSectionResult(secRes))
	if err != nil {
		fmt.Fprintf(stderr, "flipit: composing sections: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "composed whole-program distribution (population-weighted over %d sections):\n", len(secRes.Plan.Alloc))
		for _, o := range []fault.Outcome{fault.OutcomeSymptom, fault.OutcomeDetected, fault.OutcomeMasked, fault.OutcomeSOC} {
			fmt.Fprintf(stdout, "  %-9s %6.2f%%\n", o, 100*d[o])
		}
	}
	fmt.Fprintf(stdout, "sectioned: %d trials executed, %d restored from journals; monolithic equivalent at equal coverage: %d trials\n",
		secRes.Executed, secRes.Restored, secRes.Plan.MonoTrials)
	fmt.Fprintln(stdout, "per-section allocation:")
	for _, st := range secRes.Stats {
		fmt.Fprintf(stdout, "  %-32s pop %8d  trials %4d  restored %4d  fp %.12s\n",
			st.Label, st.Pop, st.Trials, st.Restored, st.FP)
	}
}

// checkLayout refuses a -journal path in a layout older flipit versions
// wrote: a journal file, or a directory holding shard or section
// journals at its top level. Neither is where the checkpoint directory
// keeps the campaign's journals, so -resume would quietly start from
// scratch; the error carries the command that migrates the checkpoint.
func checkLayout(dir string) error {
	if dir == "" {
		return nil
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		to := strings.TrimSuffix(dir, filepath.Ext(dir))
		if to == dir {
			to += ".d"
		}
		return fmt.Errorf("-journal %s is a journal file, but -journal now names a checkpoint directory; migrate it with\n\tmkdir %s && mv %s %s\nand rerun with -journal %s",
			dir, to, dir, filepath.Join(to, stage+".jsonl"), to)
	}
	for _, l := range [][]string{{".shards", "shard-*.jsonl", "merged.jsonl"}, {".sections", "sec-*.jsonl"}} {
		var old []string
		for _, glob := range l[1:] {
			if m, _ := filepath.Glob(filepath.Join(dir, glob)); len(m) > 0 {
				old = append(old, filepath.Join(dir, glob))
			}
		}
		if len(old) > 0 {
			to := filepath.Join(dir, stage+l[0])
			return fmt.Errorf("-journal %s holds journals in the old flat layout, but they now belong in %s; migrate them with\n\tmkdir %s && mv %s %s/\nand rerun with the same -journal",
				dir, to, to, strings.Join(old, " "), to)
		}
	}
	return nil
}

// reportModels runs the per-model resilience comparison: for every
// built-in error model, one campaign against the unprotected workload
// (how does the outcome distribution shift as faults get nastier?) and
// one against a fully duplicated (DMR) build of the same module (how
// much of the residual SOC does the stock detector still catch?).
// Recall = Detected / (Detected + SOC) on the protected build — the
// figure that collapses when a model defeats the protection's
// single-upset assumption.
func reportModels(ctx context.Context, stdout io.Writer, m *ir.Module, spec *workloads.Spec, prog *interp.Program, trials int, seed int64, workers, maxRetries int, watchdog time.Duration) error {
	pm := ir.CloneModule(m)
	st, err := dup.FullDuplication(pm)
	if err != nil {
		return err
	}
	pprog, err := fault.Compile(pm)
	if err != nil {
		return err
	}
	cfg := spec.BaseConfig(1)
	cfg.Watchdog = watchdog

	runOne := func(p *interp.Program, model fault.ErrorModel) (*fault.CampaignResult, error) {
		c := &fault.Campaign{
			Prog:       p,
			Verify:     spec.Verify,
			Config:     cfg,
			Seed:       seed,
			Model:      model,
			Workers:    workers,
			MaxRetries: fault.ExplicitRetries(maxRetries),
		}
		res, err := c.RunContext(ctx, trials)
		if res == nil {
			return nil, err
		}
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		return res, nil
	}

	fmt.Fprintf(stdout, "error-model report: %d trials per campaign, seed %d; DMR build duplicates %d of %d instructions\n",
		trials, seed, st.Duplicated, st.Candidates)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\tsymptom%\tdetected%\tmasked%\tSOC%\t|\tDMR SOC%\tDMR recall%")
	for _, model := range fault.BuiltinModels() {
		base, err := runOne(prog, model)
		if err != nil {
			return err
		}
		prot, err := runOne(pprog, model)
		if err != nil {
			return err
		}
		det := prot.Counts[fault.OutcomeDetected]
		soc := prot.Counts[fault.OutcomeSOC]
		recall := "n/a"
		if det+soc > 0 {
			recall = fmt.Sprintf("%.1f", 100*float64(det)/float64(det+soc))
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t|\t%.1f\t%s\n",
			model.Name(),
			100*base.Proportion(fault.OutcomeSymptom),
			100*base.Proportion(fault.OutcomeDetected),
			100*base.Proportion(fault.OutcomeMasked),
			100*base.Proportion(fault.OutcomeSOC),
			100*prot.Proportion(fault.OutcomeSOC),
			recall)
	}
	return w.Flush()
}
