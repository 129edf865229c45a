package compose_test

import (
	"context"
	"strings"
	"testing"

	"ipas/internal/compose"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/workloads"
)

// The differential harness: for every mini-app, run a monolithic
// campaign and a sectioned campaign against the same binary and
// compare the composed whole-program outcome distribution against the
// monolithic estimate. Both are unbiased estimators of the same
// distribution, so they must agree within sampling noise.
//
// agreementBound is the documented L∞ agreement bound. With ~120
// monolithic trials (per-outcome stderr ≈ 0.046) and per-section
// budgets capped at 40 (population-weighted composed stderr ≈ 0.07 in
// the worst case), three combined standard errors stay under 0.25.
// Seeds are fixed, so the comparison is deterministic — the bound
// guards against estimator bugs, not flakiness.
const (
	agreementBound = 0.25
	monoTrials     = 120
	maxPerSection  = 40
)

func runDifferential(t *testing.T, name string) {
	t.Helper()
	spec := workloads.MustGet(name, 1)
	m, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	mono := &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 42}
	monoRes, err := mono.RunContext(ctx, monoTrials)
	if err != nil {
		t.Fatalf("monolithic campaign: %v", err)
	}

	sec := &fault.Campaign{
		Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 42,
		Sections: true, Coverage: 1, MaxPerSection: maxPerSection,
	}
	prep, err := sec.Prepare(ctx)
	if err != nil {
		t.Fatalf("sectioned prepare: %v", err)
	}
	secRes, err := prep.RunSections(ctx, "")
	if err != nil {
		t.Fatalf("sectioned campaign: %v", err)
	}

	composed, err := compose.Whole(compose.FromSectionResult(secRes))
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if s := composed.Sum(); s < 0.999 || s > 1.001 {
		t.Errorf("composed mass = %v, want 1", s)
	}
	monoD := compose.FromCampaignResult(monoRes)
	diff := compose.MaxDiff(composed, monoD)
	t.Logf("%s: composed=%v monolithic=%v L∞=%.3f sectioned-trials=%d mono-equivalent=%d",
		name, composed, monoD, diff, secRes.Plan.Total, secRes.Plan.MonoTrials)
	if diff > agreementBound {
		t.Errorf("composed and monolithic distributions disagree: L∞ = %.3f > %.2f", diff, agreementBound)
	}
	// The analytic equal-coverage comparison must favor sectioning on
	// every mini-app (TestSectionedTrialReduction pins the exact counts
	// and the aggregate ≥5× bound; here we only require it helps at all).
	if secRes.Plan.MonoTrials <= int64(secRes.Plan.Total) {
		t.Errorf("sectioning does not reduce trials: %d sectioned vs %d monolithic",
			secRes.Plan.Total, secRes.Plan.MonoTrials)
	}
}

func TestDifferentialComposedVsMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is long; run without -short")
	}
	for _, name := range workloads.Names {
		t.Run(name, func(t *testing.T) { runDifferential(t, name) })
	}
}

// incrSrcA is a controlled multi-function program for exact incremental
// accounting; incrSrcB differs from it in exactly one constant inside
// @scale (a value-only edit: no control flow or dynamic counts change,
// so every other section's fingerprint, population and allocation are
// identical between the two binaries).
const incrSrcA = `
builtin @out_f64(i64, f64) void

func @scale(f64 %x) f64 {
entry:
  %r = fmul f64 %x, 3.0
  ret f64 %r
}

func @accum(i64 %n) f64 {
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i1, %loop]
  %acc = phi f64 [0.0, %entry], [%acc1, %loop]
  %xf = sitofp i64 %i to f64
  %s = call f64 @scale(f64 %xf)
  %acc1 = fadd f64 %acc, %s
  %i1 = add i64 %i, 1
  %c = icmp lt i64 %i1, %n
  condbr %c, %loop, %exit
exit:
  ret f64 %acc1
}

func @main() void {
entry:
  %n = add i64 20, 0
  %a = call f64 @accum(i64 %n)
  %b = fmul f64 %a, 0.25
  call void @out_f64(i64 0, f64 %a)
  call void @out_f64(i64 1, f64 %b)
  ret void
}
`

func incrProgram(t *testing.T, src string) (*fault.Campaign, *ir.Module) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	m.AssignSiteIDs()
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	c := &fault.Campaign{
		Prog: prog,
		Verify: func(golden, faulty *interp.Result) bool {
			return sameF(golden.OutputF, faulty.OutputF)
		},
		Seed: 7, Sections: true, Coverage: 2,
	}
	return c, m
}

func sameF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalReanalysis drives the edit-one-function re-protect
// loop and asserts the journal trial-count accounting exactly:
// run A, re-run A (everything restored), then run the edited binary B
// (only @scale's section re-executes).
func TestIncrementalReanalysis(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cA, _ := incrProgram(t, incrSrcA)
	prepA, err := cA.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := prepA.RunSections(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Restored != 0 || resA.Executed != resA.Plan.Total {
		t.Fatalf("first run: restored=%d executed=%d, want 0/%d",
			resA.Restored, resA.Executed, resA.Plan.Total)
	}

	// Same binary again: every trial restores, nothing executes.
	cA2, _ := incrProgram(t, incrSrcA)
	prepA2, err := cA2.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resA2, err := prepA2.RunSections(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if resA2.Executed != 0 || resA2.Restored != resA.Plan.Total {
		t.Fatalf("unchanged re-run: restored=%d executed=%d, want %d/0",
			resA2.Restored, resA2.Executed, resA.Plan.Total)
	}
	for i := range resA.Trials {
		x, y := resA.Trials[i], resA2.Trials[i]
		if x.Site != y.Site || x.Outcome != y.Outcome || x.Index != y.Index || x.Bit != y.Bit {
			t.Fatalf("trial %d differs after restore: %+v vs %+v", i, x, y)
		}
	}

	// Edit @scale's constant: only its section re-runs.
	if !strings.Contains(incrSrcA, "fmul f64 %x, 3.0") {
		t.Fatal("edit pattern not found in source")
	}
	incrSrcB := strings.Replace(incrSrcA, "fmul f64 %x, 3.0", "fmul f64 %x, 5.0", 1)
	cB, _ := incrProgram(t, incrSrcB)
	prepB, err := cB.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := prepB.RunSections(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}

	changed := 0
	fpsA := map[string]bool{}
	for _, a := range prepA.SectionPlan().Alloc {
		fpsA[a.FP] = true
	}
	for _, b := range prepB.SectionPlan().Alloc {
		if !fpsA[b.FP] {
			changed += b.Trials
		}
	}
	if changed == 0 {
		t.Fatal("edit changed no section fingerprint")
	}
	if resB.Executed != changed {
		t.Errorf("incremental run executed %d trials, want %d (only the edited section)",
			resB.Executed, changed)
	}
	if resB.Restored != resB.Plan.Total-changed {
		t.Errorf("incremental run restored %d trials, want %d",
			resB.Restored, resB.Plan.Total-changed)
	}
}
