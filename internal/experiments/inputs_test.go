package experiments

import (
	"context"
	"testing"

	"ipas/internal/core"
	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// Figure 9's campaigns go through the same dispatcher as every other
// campaign: under sectioned controls each one runs sectioned, so its
// trial count is the per-section allocation, not Params.InputTrials.
func TestFig9CampaignHonorsSections(t *testing.T) {
	const maxPerSection = 3
	s := NewSuite(Smoke("FFT"))
	spec := workloads.MustGet("FFT", 1)
	m, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	campaign := func() *fault.Campaign {
		return &fault.Campaign{Prog: prog, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 102}
	}

	ref := campaign()
	ref.Sections, ref.Coverage, ref.MaxPerSection = true, 1, maxPerSection
	prep, err := ref.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := prep.SectionTotal()
	if want == 0 || want == s.Params.InputTrials {
		t.Fatalf("section allocation is %d trials; the test needs one that differs from InputTrials=%d", want, s.Params.InputTrials)
	}

	cc := &core.CampaignControls{Sections: true, MaxPerSection: maxPerSection}
	res, err := s.runInputCampaign(context.Background(), cc, "fig9 input1 unprot", campaign())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != want {
		t.Fatalf("Figure 9 campaign ran %d trials under sectioned controls, want the allocation's %d", len(res.Trials), want)
	}
}
