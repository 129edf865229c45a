// Command perfbench is the IPAS benchmark. It runs one named workload
// through the repository's public package APIs, checks the outputs, and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload workflow-fft -seed 3 -seconds 40 -trace 0
//
// Every repetition runs in a fresh child process (this binary re-executed
// with PERFBENCH_CHILD set), so the process-wide golden-run cache, pooled
// interpreter memory and the Go heap never carry over from one
// repetition into the next, and the child's peak resident memory is the
// run's own. See README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a child's request (JSON) from the parent.
const childEnv = "PERFBENCH_CHILD"

// childTimeout bounds one child process; a run must end within 180 s.
const childTimeout = 150 * time.Second

// settings pins every timer and concurrency knob the harness owns. The
// values are printed with every report.
type settings struct {
	// Procs is GOMAXPROCS of every child and also the campaign Workers,
	// the SVM TrainWorkers and the number of remote workers.
	Procs int `json:"procs"`
	// AMGTrials is the campaign-amg job size in trials.
	AMGTrials int `json:"amg_trials"`
	// RemoteShards is the shard count of the remote sectioned campaign.
	RemoteShards int `json:"remote_shards"`
	// MaxPerSection caps a section's trials of the remote campaign
	// (0 = uncapped).
	MaxPerSection int `json:"max_per_section"`
	// WorkerPoll is campaign.Worker.Poll.
	WorkerPoll time.Duration `json:"worker_poll_ns"`
	// LeaseTTL and LeaseBackoff configure the in-process coordinator.
	LeaseTTL     time.Duration `json:"lease_ttl_ns"`
	LeaseBackoff time.Duration `json:"lease_backoff_ns"`
	// ResultPoll is the Client.WaitResult poll interval.
	ResultPoll time.Duration `json:"result_poll_ns"`
	// SetupReps is the number of set-up-only children per run.
	SetupReps int `json:"setup_reps"`
	// Tiny shrinks every workload (smoke tests only).
	Tiny bool `json:"tiny"`
}

func defaultSettings() settings {
	return settings{
		Procs:     min(2, runtime.NumCPU()),
		AMGTrials: 120,
		// Small shards (about 19 trials) keep the two workers' finishing
		// times close, so which worker draws the last shard barely moves
		// a repetition's wall time.
		RemoteShards: 48,
		// Caps FFT's largest section (2,053 of 2,552 trials at coverage
		// 1) so a run holds about fifteen repetitions.
		MaxPerSection: 400,
		WorkerPoll:    20 * time.Millisecond,
		LeaseTTL:      10 * time.Second,
		LeaseBackoff:  100 * time.Millisecond,
		ResultPoll:    20 * time.Millisecond,
		SetupReps:     10,
	}
}

// tinySettings shrinks every workload to a second or two.
func tinySettings() settings {
	s := defaultSettings()
	s.AMGTrials = 4
	s.RemoteShards = 3
	s.MaxPerSection = 2
	s.SetupReps = 2
	s.Tiny = true
	return s
}

// request is what the parent asks one child to do.
type request struct {
	Workload string   `json:"workload"`
	Mode     string   `json:"mode"` // modeSetup, modeRun, modeTraced or modeReference
	Seed     int64    `json:"seed"`
	Scratch  string   `json:"scratch"`
	Settings settings `json:"settings"`
}

const (
	modeSetup     = "setup"     // set up only, then exit
	modeRun       = "run"       // one untraced repetition of the job
	modeTraced    = "traced"    // one traced repetition of the job
	modeReference = "reference" // the local reference result, untimed
)

// repResult is one child's report.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// Attempted and Failed count the job's operations.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Trials is the number of completed trials (for trials_per_s).
	Trials int `json:"trials"`
	// Problems lists failed output checks.
	Problems []string `json:"problems,omitempty"`
	// Fingerprint identifies the job's result for cross-process checks.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Layer holds per-layer metrics (traced children) and the
	// workload's quality figures.
	Layer map[string]float64 `json:"layer,omitempty"`
	// PeakRSSMiB is filled by the parent from the child's rusage.
	PeakRSSMiB float64 `json:"-"`
}

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := benchWorkloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	set := defaultSettings()
	if *tiny {
		set = tinySettings()
	}
	// Scratch files stay in the checkout, beside the build outputs.
	err := os.MkdirAll(".bench_build", 0o755)
	var scratch string
	if err == nil {
		scratch, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	r := &runner{w: w, seed: *seed, set: set, scratch: scratch}
	printHeader(w, *seed, *seconds, *trace, set)
	var line string
	if *trace == 1 {
		line, err = r.traced()
	} else {
		line, err = r.untraced(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// runner drives the children of one run.
type runner struct {
	w       *workload
	seed    int64
	set     settings
	scratch string
	nchild  int
}

// repSeed is the seed of repetition k. A workload whose job draws too
// few trials to hold its mean steady across seeds gives every repetition
// its own trials; the others repeat the run's seed.
func (r *runner) repSeed(k int) int64 {
	if r.w.seedPerRep {
		return r.seed*1000 + int64(k)
	}
	return r.seed
}

// child runs one child process and decodes its report.
func (r *runner) child(mode string, seed int64) (*repResult, error) {
	r.nchild++
	dir, err := filepath.Abs(filepath.Join(r.scratch, fmt.Sprintf("c%02d", r.nchild)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	req, err := json.Marshal(request{Workload: r.w.name, Mode: mode, Seed: seed, Scratch: dir, Settings: r.set})
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(req), fmt.Sprintf("GOMAXPROCS=%d", r.set.Procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", r.w.name, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s child (%s): decoding report: %w", r.w.name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// tally accumulates operations and failed checks over a run.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(res *repResult) {
	t.attempted += res.Attempted
	t.failed += res.Failed
	t.problems = append(t.problems, res.Problems...)
}

// fail counts a whole repetition's operations as failed.
func (res *repResult) fail(why string) {
	res.Failed = res.Attempted
	res.Problems = append(res.Problems, why)
}

// reference runs the workload's untimed reference child, if it has one.
func (r *runner) reference() (string, error) {
	if r.w.reference == nil {
		return "", nil
	}
	ref, err := r.child(modeReference, r.seed)
	if err != nil {
		return "", err
	}
	if len(ref.Problems) > 0 {
		return "", fmt.Errorf("reference run: %s", strings.Join(ref.Problems, "; "))
	}
	return ref.Fingerprint, nil
}

// checkRef compares a repetition's result against the reference
// fingerprint, if there is one.
func checkRef(ref string, res *repResult, what string) {
	if ref != "" && res.Fingerprint != ref {
		res.fail(fmt.Sprintf("%s: result %.12s differs from reference %.12s", what, res.Fingerprint, ref))
	}
}

// untraced measures repetitions until the time is spent (at least one),
// plus set-up-only children, and reports the end-to-end metrics.
func (r *runner) untraced(budget time.Duration) (string, error) {
	var t tally
	ref, err := r.reference()
	if err != nil {
		return "", err
	}
	var setups, walls, rates, rss []float64
	for range r.set.SetupReps {
		res, err := r.child(modeSetup, r.seed)
		if err != nil {
			return "", err
		}
		setups = append(setups, res.SetupS)
	}
	start := time.Now()
	var reps []*repResult
	for {
		res, err := r.child(modeRun, r.repSeed(len(reps)))
		if err != nil {
			return "", err
		}
		checkRef(ref, res, fmt.Sprintf("repetition %d", len(reps)+1))
		t.add(res)
		reps = append(reps, res)
		setups = append(setups, res.SetupS)
		walls = append(walls, res.WallS)
		rates = append(rates, float64(res.Trials)/(res.WallS-res.SetupS))
		rss = append(rss, res.PeakRSSMiB)
		// Start another repetition only if it fits the budget.
		if time.Since(start)+time.Duration(res.WallS*float64(time.Second)) > budget {
			break
		}
	}
	m := metricSet{}
	m.add("setup_s", "s", setups)
	m.add("wall_s", "s", walls)
	m.add("trials_per_s", "1/s", rates)
	m.add("peak_rss_mib", "MiB", rss)
	for _, name := range r.w.quality {
		var v []float64
		for _, res := range reps {
			v = append(v, res.Layer[name])
		}
		m.add(name, layerUnit(name), v)
	}
	return m.report(&t, endToEnd)
}

// traced runs one untraced and one traced repetition and reports the
// per-layer metrics plus the tracing overhead (traced wall_s minus
// untraced wall_s). Where a workload has a reference result, or its
// traced repetition drives its own loop (campaign-amg), both
// repetitions must match it.
func (r *runner) traced() (string, error) {
	var t tally
	ref, err := r.reference()
	if err != nil {
		return "", err
	}
	plain, err := r.child(modeRun, r.repSeed(0))
	if err != nil {
		return "", err
	}
	if ref == "" {
		ref = plain.Fingerprint
	}
	checkRef(ref, plain, "untraced repetition")
	t.add(plain)
	traced, err := r.child(modeTraced, r.repSeed(0))
	if err != nil {
		return "", err
	}
	checkRef(ref, traced, "traced repetition")
	if cov := traced.Layer["core.stage_coverage"]; r.w.name == "workflow-fft" && (cov < 0.95 || cov > 1.05) {
		traced.fail(fmt.Sprintf("core.stage_coverage = %.4f, outside [0.95, 1.05]", cov))
	}
	t.add(traced)

	m := metricSet{}
	for _, name := range perLayerNames {
		m.addOne(name, layerUnit(name), traced.Layer[name])
	}
	m.addOne("process.peak_rss_mib", "MiB", plain.PeakRSSMiB)
	m.addOne("trace.overhead_s", "s", traced.WallS-plain.WallS)
	m.addOne("trace.untraced_wall_s", "s", plain.WallS)
	m.addOne("trace.traced_wall_s", "s", traced.WallS)
	return m.report(&t, m.names)
}

// metricSet holds a run's aggregated metrics.
type metricSet struct {
	names []string
	vals  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// add records the median of samples and a note on their distribution.
func (m *metricSet) add(name, unit string, samples []float64) {
	m.put(name, metric{Value: median(samples), Unit: unit, n: len(samples), note: describe(samples)})
}

func (m *metricSet) addOne(name, unit string, v float64) {
	m.put(name, metric{Value: v, Unit: unit, n: 1})
}

func (m *metricSet) put(name string, v metric) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	m.names = append(m.names, name)
	m.vals[name] = v
}

// report prints every metric and returns the JSON result line carrying
// the named ones.
func (m *metricSet) report(t *tally, keep []string) (string, error) {
	for _, name := range m.names {
		v := m.vals[name]
		fmt.Printf("  %-36s %14.6g %-6s n=%d %s\n", name, v.Value, v.Unit, v.n, v.note)
	}
	for _, p := range t.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	out := map[string]metric{}
	for _, name := range keep {
		v, ok := m.vals[name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(t.problems) == 0 && t.failed == 0 && t.attempted > 0, max(t.attempted, 1), t.failed, out})
	return string(line), err
}

// printHeader records the machine, toolchain and pinned settings.
func printHeader(w *workload, seed int64, seconds, trace int, set settings) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("  host: nproc=%d GOMAXPROCS(children)=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), set.Procs, cpuModel(), runtime.Version(), commit())
	fmt.Printf("  pinned: workers=%d train_workers=%d remote_workers=%d worker_poll=%v lease_ttl=%v lease_backoff=%v result_poll=%v setup_reps=%d amg_trials=%d remote_shards=%d max_per_section=%d\n",
		set.Procs, set.Procs, set.Procs, set.WorkerPoll, set.LeaseTTL, set.LeaseBackoff, set.ResultPoll, set.SetupReps, set.AMGTrials, set.RemoteShards, set.MaxPerSection)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision when the benchmark runs at the root
// of a git work tree; a plain checkout reports "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// describe renders the highest percentile with at least ten samples
// beyond it, or the samples themselves when none is that well sampled.
func describe(v []float64) string {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(len(v))*(1-p) >= 10 {
			return fmt.Sprintf("p%g=%.6g", 100*p, quantile(v, p))
		}
	}
	if len(v) > 1 {
		return fmt.Sprintf("samples=%.4g", v)
	}
	return ""
}
