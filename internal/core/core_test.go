package core

import (
	"testing"

	"ipas/internal/fault"
	"ipas/internal/svm"
	"ipas/internal/workloads"
)

func loadApp(t testing.TB, name string) *App {
	t.Helper()
	spec := workloads.MustGet(name, 1)
	m, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return &App{Module: m, Verify: spec.Verify, Config: spec.BaseConfig(1)}
}

func TestCollectProducesLabeledData(t *testing.T) {
	app := loadApp(t, "FFT")
	data, err := Collect(app, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.X) != 80 || len(data.SOC) != 80 || len(data.Symptom) != 80 {
		t.Fatalf("sizes: %d/%d/%d", len(data.X), len(data.SOC), len(data.Symptom))
	}
	pos := 0
	for i, y := range data.SOC {
		if y != 1 && y != -1 {
			t.Fatalf("bad label %d", y)
		}
		if y == 1 {
			pos++
			if data.Symptom[i] == 1 {
				t.Fatal("trial labeled both SOC and symptom")
			}
		}
	}
	if pos == 0 {
		t.Fatal("no SOC-positive examples collected from FFT (expected several)")
	}
	for _, x := range data.X {
		if len(x) != 31 {
			t.Fatalf("feature dim %d, want 31", len(x))
		}
	}
}

func TestWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full workflow is slow")
	}
	app := loadApp(t, "FFT")
	opts := Options{
		Samples:    250,
		Grid:       svm.LogGrid(1, 1e5, 5, 1e-5, 1, 4),
		TopN:       3,
		EvalTrials: 90,
		Seed:       11,
	}
	res, err := Run(app, opts)
	if err != nil {
		t.Fatal(err)
	}

	un := res.Unprotected
	if un.Slowdown != 1.0 {
		t.Errorf("unprotected slowdown = %v, want 1", un.Slowdown)
	}
	if un.Coverage.Counts[fault.OutcomeDetected] != 0 {
		t.Error("unprotected variant detected faults")
	}
	unSOC := un.Coverage.Proportion(fault.OutcomeSOC)
	if unSOC == 0 {
		t.Fatal("unprotected SOC is zero; nothing to reduce")
	}

	fd := res.FullDup
	if fd.Slowdown <= 1.0 || fd.Slowdown > 3.5 {
		t.Errorf("full-dup slowdown = %.2f, want (1, 3.5]", fd.Slowdown)
	}
	if fd.Coverage.Counts[fault.OutcomeDetected] == 0 {
		t.Error("full duplication detected nothing")
	}
	if fd.SOCReductionPct < 50 {
		t.Errorf("full-dup SOC reduction %.1f%% < 50%%", fd.SOCReductionPct)
	}

	if len(res.IPAS) != 3 || len(res.Baseline) != 3 {
		t.Fatalf("variant counts: %d IPAS, %d Baseline", len(res.IPAS), len(res.Baseline))
	}
	// The paper's headline: some IPAS configuration beats the baseline
	// on overhead; IPAS protects fewer instructions than Baseline on
	// average (Figure 7).
	var ipasDup, baseDup, ipasMinSlow, baseMinSlow float64
	ipasMinSlow, baseMinSlow = 99, 99
	for i := range res.IPAS {
		ipasDup += res.IPAS[i].Stats.DuplicatedPercent()
		baseDup += res.Baseline[i].Stats.DuplicatedPercent()
		if res.IPAS[i].Slowdown < ipasMinSlow {
			ipasMinSlow = res.IPAS[i].Slowdown
		}
		if res.Baseline[i].Slowdown < baseMinSlow {
			baseMinSlow = res.Baseline[i].Slowdown
		}
		if res.IPAS[i].Slowdown > fd.Slowdown+0.01 {
			t.Errorf("IPAS-%d slower than full duplication", i+1)
		}
	}
	ipasDup /= 3
	baseDup /= 3
	t.Logf("dup%%: IPAS %.1f vs Baseline %.1f; slowdowns: IPAS min %.2f, Baseline min %.2f, FullDup %.2f",
		ipasDup, baseDup, ipasMinSlow, baseMinSlow, fd.Slowdown)
	if ipasDup >= baseDup {
		t.Errorf("IPAS duplicates more instructions (%.1f%%) than Baseline (%.1f%%)", ipasDup, baseDup)
	}

	best := res.Best(PolicyIPAS)
	if best == nil {
		t.Fatal("no best IPAS variant")
	}
	t.Logf("best IPAS: %s reduction=%.1f%% slowdown=%.2f (unprot SOC %.1f%%)",
		best.Label(), best.SOCReductionPct, best.Slowdown, 100*unSOC)
	if best.SOCReductionPct < 30 {
		t.Errorf("best IPAS SOC reduction %.1f%% < 30%%", best.SOCReductionPct)
	}
	if res.TrainIPASTime <= 0 || res.ProtectTime <= 0 {
		t.Error("timing not recorded")
	}
}

func TestIdealDistance(t *testing.T) {
	if IdealDistance(1, 100) != 0 {
		t.Error("ideal point distance must be 0")
	}
	if IdealDistance(2, 100) != 1 {
		t.Error("distance along slowdown axis")
	}
	if d := IdealDistance(1, 0); d != 100 {
		t.Errorf("distance along reduction axis = %v", d)
	}
}
