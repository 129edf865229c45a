package compose_test

import (
	"context"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// TestSectionedTrialReduction pins the sectioned campaign's trial-count
// advantage over a monolithic campaign at equal site coverage. Both
// counts are analytic — the sectioned total is the per-section
// allocation Σ_s ceil(coverage·P_s/Dmin_s) and the monolithic
// equivalent is ceil(coverage·P/Dmin) with the global minimum site
// depth — so they are exact and machine-independent: any change to
// the partition, the populations or the allocation rule shows up here
// as a changed number, and the aggregate must keep the headline ≥5×
// reduction.
func TestSectionedTrialReduction(t *testing.T) {
	want := map[string]struct{ sectioned, mono int64 }{
		"CoMD":  {4529, 771550},
		"HPCCG": {291092, 3238806},
		"AMG":   {7007, 3733195},
		"FFT":   {2552, 256401},
		"IS":    {86076, 323684},
	}
	const minReduction = 5

	var totalSec, totalMono int64
	for _, name := range workloads.Names {
		spec := workloads.MustGet(name, 1)
		m, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := fault.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		c := &fault.Campaign{
			Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 1,
			Sections: true, Coverage: 1,
		}
		prep, err := c.Prepare(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp := prep.SectionPlan()
		got := struct{ sectioned, mono int64 }{int64(sp.Total), sp.MonoTrials}
		t.Logf("%-6s %6d sectioned vs %8d monolithic-equivalent trials (%.0fx)",
			name, got.sectioned, got.mono, float64(got.mono)/float64(got.sectioned))
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned trial counts; add them to the table", name)
		} else if got != w {
			t.Errorf("%s: %d sectioned / %d monolithic-equivalent trials, want %d / %d",
				name, got.sectioned, got.mono, w.sectioned, w.mono)
		}
		totalSec += got.sectioned
		totalMono += got.mono
	}
	if len(workloads.Names) != len(want) {
		t.Errorf("pinned %d workloads, workloads.Names has %d", len(want), len(workloads.Names))
	}
	ratio := float64(totalMono) / float64(totalSec)
	t.Logf("aggregate %d sectioned vs %d monolithic-equivalent trials (%.1fx reduction)", totalSec, totalMono, ratio)
	if ratio < minReduction {
		t.Errorf("aggregate trial reduction %.2fx is below the required %dx", ratio, minReduction)
	}
}
