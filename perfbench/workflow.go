package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipas"
	"ipas/internal/core"
	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/ir"
	"ipas/internal/svm"
)

// workflowOptions is what `ipas` runs with no flags (QuickOptions) at
// the request's seed, with the harness's pinned worker counts.
func workflowOptions(req request) core.Options {
	opts := core.QuickOptions()
	if req.Settings.Tiny {
		opts = core.Options{Samples: 60, Grid: svm.LogGrid(1, 1e3, 2, 1e-3, 1, 2), TopN: 2, EvalTrials: 20}
	}
	opts.Seed = req.Seed
	opts.Controls = &core.CampaignControls{Workers: req.Settings.Procs, TrainWorkers: req.Settings.Procs}
	return opts
}

func setupWorkflow(ctx context.Context, req request) (float64, error) {
	t := time.Now()
	_, _, _, err := load(ctx, "FFT", &fault.Campaign{Seed: req.Seed})
	return seconds(time.Since(t)), err
}

// runWorkflow runs the full IPAS workflow on FFT input 1. Set-up is the
// load plus the collect campaign's cold golden run, which the workflow
// then reuses from the golden-run cache. A traced run makes the same
// ipas.RunWorkflowContext call with a Controls.Progress callback and
// derives the per-layer metrics from its events and the result.
func runWorkflow(ctx context.Context, req request, trace bool) (*repResult, error) {
	t0 := time.Now()
	capp, _, st, err := load(ctx, "FFT", &fault.Campaign{Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	opts := workflowOptions(req)
	wt := &workflowTrace{}
	if trace {
		opts.Controls.Progress = wt.observe
	}
	start := time.Now()
	res, err := ipas.RunWorkflowContext(ctx, capp, opts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)

	l := map[string]float64{}
	out := &repResult{SetupS: seconds(setup), WallS: seconds(wall), Attempted: 1, Layer: l}
	out.Problems = checkWorkflow(res, opts)
	if len(out.Problems) > 0 {
		out.Failed = 1
	}
	out.Trials = res.Data.Campaign.Completed
	for _, v := range res.AllVariants() {
		out.Trials += v.Coverage.Completed
	}
	best := res.Best(core.PolicyIPAS)
	l["core.ipas_soc_reduction_pct"] = best.SOCReductionPct
	l["core.ipas_slowdown"] = best.Slowdown
	if trace {
		st.into(l)
		wt.report(l, res, opts, start, wall)
		l["dup.duplicated"] = float64(best.Stats.Duplicated)
		l["dup.checks"] = float64(best.Stats.Checks)
		t := time.Now()
		core.SiteFeaturesOf(capp.Module)
		l["features.extract_ms"] = ms(time.Since(t))
	}
	return out, nil
}

// checkWorkflow applies the workflow's output checks.
func checkWorkflow(res *core.Result, opts core.Options) []string {
	var p []string
	if c := res.Data.Campaign; c.Completed != opts.Samples {
		p = append(p, fmt.Sprintf("collect completed %d of %d trials", c.Completed, opts.Samples))
	}
	for _, v := range res.AllVariants() {
		if v.Coverage.Completed != opts.EvalTrials {
			p = append(p, fmt.Sprintf("%s completed %d of %d eval trials", v.Label(), v.Coverage.Completed, opts.EvalTrials))
		}
		if v.Slowdown < 1 {
			p = append(p, fmt.Sprintf("%s slowdown %.4f < 1", v.Label(), v.Slowdown))
		}
	}
	p = append(p, fullDupLeaks(res.FullDup)...)
	if len(res.IPAS) == 0 || res.Best(core.PolicyIPAS) == nil {
		p = append(p, "no IPAS variant")
	}
	return p
}

// fullDupLeaks reports every SOC of the full-duplication variant that
// comes from a fault at a duplicated site. Full duplication protects
// every duplicable instruction. Call results are injectable but never
// duplicated, so FullDup may show SOC only from faults at such sites
// (FFT: lcg, cos and mpi_rank results). Inserted shadow and check code
// carries the SiteID of the instruction it protects, so a site is
// looked up among the original instructions only.
func fullDupLeaks(v *core.Variant) []string {
	site := map[int]*ir.Instr{}
	for _, f := range v.Module.Funcs() {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Prot == ir.ProtNone {
					site[in.SiteID] = in
				}
			}
		}
	}
	var p []string
	for _, tr := range v.Coverage.Trials {
		if tr.Status != fault.TrialCompleted || tr.Outcome != fault.OutcomeSOC {
			continue
		}
		if in := site[tr.Site]; in == nil || dup.Duplicable(in) {
			p = append(p, fmt.Sprintf("FullDup: SOC from a fault at duplicated site %d", tr.Site))
		}
	}
	return p
}

// workflowTrace records the workflow's Controls.Progress events: one per
// completed collect or eval trial and one per evaluated grid point.
type workflowTrace struct {
	mu     sync.Mutex
	events []progressEvent
}

type progressEvent struct {
	stage string
	at    time.Time
	// g is the goroutine of a grid-point event. The grid search calls
	// Progress on the worker that evaluated the point.
	g int64
}

func (wt *workflowTrace) observe(stage string, done, total, failed, deadlocked int) {
	e := progressEvent{stage: stage, at: time.Now()}
	if strings.HasPrefix(stage, "train ") {
		e.g = goroutineID()
	}
	wt.mu.Lock()
	wt.events = append(wt.events, e)
	wt.mu.Unlock()
}

// report derives the core, svm and dup metrics of a traced workflow
// that started at start. Stage boundaries come from the events: collect
// runs from start to its last trial event, and the variants stage from
// the first to the last eval event. The training stages are
// core.Result's own timers; IPAS training starts at the last collect
// event and Baseline training right after it. The stages run in
// sequence, so their sum over the repetition's wall time is the share
// the events account for.
func (wt *workflowTrace) report(l map[string]float64, res *core.Result, opts core.Options, start time.Time, wall time.Duration) {
	last := map[string]time.Time{}
	var firstEval, lastEval time.Time
	for _, e := range wt.events {
		last[e.stage] = e.at
		if strings.HasPrefix(e.stage, "eval ") {
			if firstEval.IsZero() {
				firstEval = e.at
			}
			lastEval = e.at
		}
	}
	collectEnd := last["collect"]
	l["core.collect_s"] = seconds(collectEnd.Sub(start))
	l["core.train_ipas_s"] = seconds(res.TrainIPASTime)
	l["core.train_baseline_s"] = seconds(res.TrainBaselineTime)
	l["core.variants_s"] = seconds(lastEval.Sub(firstEval))
	l["core.stage_coverage"] = (l["core.collect_s"] + l["core.train_ipas_s"] + l["core.train_baseline_s"] + l["core.variants_s"]) / seconds(wall)

	// A grid point's time is the gap to the same worker's previous
	// event (its first point: to the training's start, kernel gather
	// included). The refits follow the last grid point.
	var points durations
	var refit time.Duration
	trainStart := collectEnd
	for _, tr := range []struct {
		stage string
		took  time.Duration
	}{{"train IPAS", res.TrainIPASTime}, {"train Baseline", res.TrainBaselineTime}} {
		prev := map[int64]time.Time{}
		for _, e := range wt.events {
			if e.stage != tr.stage {
				continue
			}
			p, ok := prev[e.g]
			if !ok {
				p = trainStart
			}
			points = append(points, ms(e.at.Sub(p)))
			prev[e.g] = e.at
		}
		refit += tr.took - last[tr.stage].Sub(trainStart)
		trainStart = trainStart.Add(tr.took)
	}
	l["svm.grid_points"] = float64(len(points))
	l["svm.grid_point_ms.p50"] = points.p(0.5)
	l["svm.grid_point_ms.p99"] = points.p(0.99)
	l["svm.refit_ms"] = ms(refit)
	// Computed: a grid search builds one kernel matrix per γ, and each
	// training's refits one per distinct γ among its top-N classifiers.
	l["svm.kernel_matrices"] = float64(2*len(opts.Grid.Gammas) + distinctGammas(res.IPAS) + distinctGammas(res.Baseline))

	var protect durations
	for _, v := range res.AllVariants() {
		if v.Policy != core.PolicyNone {
			protect = append(protect, ms(v.ProtectDuration))
		}
	}
	l["dup.protect_ms.p50"] = protect.p(0.5)
}

func distinctGammas(vs []*core.Variant) int {
	seen := map[float64]bool{}
	for _, v := range vs {
		seen[v.Classifier.Config.Params.Gamma] = true
	}
	return len(seen)
}

// goroutineID parses the calling goroutine's ID from its stack header
// ("goroutine 17 [running]:").
func goroutineID() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}
