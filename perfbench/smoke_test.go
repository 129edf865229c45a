package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ipas/internal/core"
	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/ir"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// TestMain lets the test binary serve as its own child process.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// run calls the benchmark's entry point and decodes its last line.
func run(t *testing.T, args ...string) resultLine {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	code := parentMain(args)
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d; output:\n%s", code, data)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, data)
	}
	return res
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes and
// checks that each run passes its output checks and reports exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs child processes for every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadNames() {
		for _, tc := range []struct {
			trace string
			want  map[string]string
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w+"/trace"+tc.trace, func(t *testing.T) {
				res := run(t, "-workload", w, "-seed", "3", "-seconds", "1", "-trace", tc.trace, "-tiny")
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(res.Metrics), len(tc.want))
				}
				for name, unit := range tc.want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case tc.trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := parentMain([]string{"-workload", "nope"}); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestMismatchFailsRun checks that a repetition whose result differs
// from the reference counts all its operations as failed and makes the
// run incorrect.
func TestMismatchFailsRun(t *testing.T) {
	var tl tally
	ok := &repResult{Attempted: 5, Fingerprint: "a"}
	bad := &repResult{Attempted: 5, Fingerprint: "b"}
	for _, res := range []*repResult{ok, bad} {
		checkRef("a", res, "repetition")
		tl.add(res)
	}
	m := metricSet{}
	m.add("wall_s", "s", []float64{1})
	line, err := m.report(&tl, []string{"wall_s"})
	if err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 10 || res.Failed != 5 {
		t.Fatalf("got correct=%v attempted=%d failed=%d, want false/10/5", res.Correct, res.Attempted, res.Failed)
	}
}

// TestFullDupLeakCheck checks that an SOC from a duplicated site fails
// the FullDup check even when the site's last instruction in block
// order is inserted check code (check chains sit in blocks appended
// after the original ones and carry the protected instruction's
// SiteID), while an SOC from a call result is excused.
func TestFullDupLeakCheck(t *testing.T) {
	spec, err := workloads.Get("FFT", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	m = ir.CloneModule(m)
	if _, err := dup.FullDuplication(m); err != nil {
		t.Fatal(err)
	}
	orig, lastBy := map[int]*ir.Instr{}, map[int]*ir.Instr{}
	for _, f := range m.Funcs() {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Prot == ir.ProtNone {
					orig[in.SiteID] = in
				}
				lastBy[in.SiteID] = in
			}
		}
	}
	checked, call := -1, -1
	for id, in := range orig {
		switch {
		case id < 0:
		case dup.Duplicable(in) && !dup.Duplicable(lastBy[id]) && (checked < 0 || id < checked):
			checked = id
		case in.Op() == ir.OpCall && (call < 0 || id < call):
			call = id
		}
	}
	if checked < 0 || call < 0 {
		t.Fatalf("FFT under full duplication has no checked path-end site (%d) or no call site (%d)", checked, call)
	}
	soc := func(site int) *core.Variant {
		tr := fault.Trial{Status: fault.TrialCompleted, Outcome: fault.OutcomeSOC, Site: site}
		return &core.Variant{Policy: core.PolicyFullDup, Module: m, Coverage: &fault.CampaignResult{Trials: []fault.Trial{tr}}}
	}
	if p := fullDupLeaks(soc(checked)); len(p) != 1 {
		t.Errorf("SOC at duplicated site %d (%s): problems %q, want one", checked, orig[checked].Op(), p)
	}
	if p := fullDupLeaks(soc(call)); len(p) != 0 {
		t.Errorf("SOC at call site %d: problems %q, want none", call, p)
	}
}
