package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ipas/internal/core"
	"ipas/internal/fault"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// run executes one repetition in the child; trace selects the
	// traced variant.
	run func(ctx context.Context, req request, trace bool) (*repResult, error)
	// setup performs only the repetition's set-up.
	setup func(ctx context.Context, req request) (float64, error)
	// reference, if set, computes the untimed reference fingerprint
	// every repetition must match.
	reference func(ctx context.Context, req request) (*repResult, error)
	// seedPerRep gives every repetition of a run its own trials.
	seedPerRep bool
	// quality names figures printed with the end-to-end metrics.
	quality []string
}

// endToEnd names the gated end-to-end metrics. peak_rss_mib is printed
// with them but reported per layer (process.peak_rss_mib): one
// process's peak depends on when the collector runs relative to the
// interpreter's pooled 64 MiB address spaces, and on workflow-fft it
// reads about 210 or about 370 MiB for the same workload.
var endToEnd = []string{"setup_s", "wall_s", "trials_per_s"}

var benchWorkloads = map[string]*workload{
	"workflow-fft": {
		name: "workflow-fft", run: runWorkflow, setup: setupWorkflow,
		quality: []string{"core.ipas_soc_reduction_pct", "core.ipas_slowdown"},
	},
	"campaign-amg": {
		name: "campaign-amg", run: runAMG, setup: setupAMG, seedPerRep: true,
	},
	"remote-sections-fft": {
		name: "remote-sections-fft", run: runRemote, setup: setupRemote, reference: referenceRemote,
	},
}

func workloadNames() []string {
	var out []string
	for n := range benchWorkloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// perLayerNames lists every per-layer metric of a traced run, in report
// order. A traced run of a workload that does not exercise a layer
// reports 0 for it.
var perLayerNames = []string{
	"core.collect_s", "core.train_ipas_s", "core.train_baseline_s", "core.variants_s", "core.stage_coverage",
	"core.ipas_soc_reduction_pct", "core.ipas_slowdown",
	"svm.grid_points", "svm.grid_point_ms.p50", "svm.grid_point_ms.p99", "svm.refit_ms", "svm.kernel_matrices",
	"features.extract_ms", "dup.protect_ms.p50", "dup.duplicated", "dup.checks",
	"lang.compile_ms", "interp.compile_ms", "fault.prepare_ms", "interp.golden_instrs",
	"fault.trial_ms.p50", "fault.trial_ms.p99",
	"fault.trial_busy_s.symptom", "fault.trial_busy_s.detected", "fault.trial_busy_s.masked", "fault.trial_busy_s.soc",
	"fault.pre_injection_instrs", "fault.post_injection_instrs", "fault.trial_instrs_per_s",
	"fault.journal_record_us.p50", "fault.journal_record_us.p99", "fault.worker_idle_share", "fault.retries",
	"campaign.admission_ms", "campaign.records_server_ms.p50", "campaign.records_server_ms.p99",
	"campaign.records_rtt_ms.p50", "campaign.records_rtt_ms.p99",
	"campaign.requests.acquire", "campaign.requests.heartbeat", "campaign.requests.records",
	"campaign.acquire_granted_ratio", "campaign.worker_busy_share", "campaign.leases_expired",
	"campaign.completion_lag_ms",
	"sections.count", "sections.trials", "compose.whole_ms",
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "share"), strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "coverage"), strings.HasSuffix(name, "slowdown"):
		return "ratio"
	}
	return "count"
}

// childMain runs one repetition and prints its report as JSON.
func childMain(raw string) int {
	var req request
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: decoding request: %v\n", err)
		return 1
	}
	w := benchWorkloads[req.Workload]
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", req.Workload)
		return 1
	}
	ctx := context.Background()
	var (
		res *repResult
		err error
	)
	switch req.Mode {
	case modeSetup:
		res = &repResult{}
		res.SetupS, err = w.setup(ctx, req)
	case modeRun, modeTraced:
		res, err = w.run(ctx, req, req.Mode == modeTraced)
	case modeReference:
		res, err = w.reference(ctx, req)
	default:
		err = fmt.Errorf("unknown mode %q", req.Mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", req.Workload, req.Mode, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setupTimes are the set-up layer timings of one repetition.
type setupTimes struct {
	langCompile, interpCompile, prepare time.Duration
	goldenInstrs                        int64
}

func (s setupTimes) into(l map[string]float64) {
	l["lang.compile_ms"] = ms(s.langCompile)
	l["interp.compile_ms"] = ms(s.interpCompile)
	l["fault.prepare_ms"] = ms(s.prepare)
	l["interp.golden_instrs"] = float64(s.goldenInstrs)
}

// load compiles a workload as ipas.FromWorkload does and prepares a
// campaign over it: the cold
// golden run every later campaign on the same program reuses through
// fault.SharedGoldenCache. The child process starts with an empty cache,
// so this golden run is always executed.
func load(ctx context.Context, name string, c *fault.Campaign) (*core.App, *fault.Prepared, setupTimes, error) {
	var st setupTimes
	spec, err := workloads.Get(name, 1)
	if err != nil {
		return nil, nil, st, err
	}
	t := time.Now()
	m, err := lang.Compile(spec.Source)
	if err != nil {
		return nil, nil, st, err
	}
	st.langCompile = time.Since(t)
	a := &core.App{Module: m, Verify: spec.Verify, Config: spec.BaseConfig(1)}

	t = time.Now()
	prog, err := fault.Compile(m)
	if err != nil {
		return nil, nil, st, err
	}
	st.interpCompile = time.Since(t)

	c.Prog, c.Verify, c.Config = prog, a.Verify, a.Config
	t = time.Now()
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, nil, st, err
	}
	st.prepare = time.Since(t)
	if prep.GoldenCached {
		return nil, nil, st, fmt.Errorf("golden run was served from a warm cache; set-up must be cold")
	}
	st.goldenInstrs = prep.Golden.TotalDyn
	return a, prep, st, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(d time.Duration) float64 { return d.Seconds() }

// fingerprint hashes a JSON rendering of v.
func fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is hashed
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// durations collects samples of one timing.
type durations []float64

func (d durations) p(q float64) float64 { return quantile(d, q) }
