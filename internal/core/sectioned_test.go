package core

import (
	"context"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/interp"
)

// A sectioned collection in which some trials exhaust their retries is
// degraded, not discarded: like the plain and sharded engines, the
// completed trials still form the training set and the joined trial
// errors land in Degraded.
func TestCollectSectionedKeepsDegradedResult(t *testing.T) {
	app := loadApp(t, "FFT")
	verify := app.Verify
	// The verifier is a pure function of the faulty output, so the same
	// trials fail on every attempt: every output the real verifier
	// rejects panics instead.
	app.Verify = func(golden, faulty *interp.Result) bool {
		if !verify(golden, faulty) {
			panic("verifier crashed on a corrupted output")
		}
		return true
	}
	cc := &CampaignControls{MaxRetries: fault.NoRetries, Sections: true, SectionCoverage: 1, MaxPerSection: 6}
	d, err := CollectContext(context.Background(), app, 0, 9, cc)
	if err != nil {
		t.Fatalf("degraded sectioned collection failed outright: %v", err)
	}
	if d.Degraded == nil || d.Campaign.Failed == 0 {
		t.Fatalf("no trial failed (failed=%d, degraded=%v); the test needs a corrupted output", d.Campaign.Failed, d.Degraded)
	}
	if len(d.X) != d.Campaign.Completed || len(d.X) == 0 {
		t.Fatalf("training set has %d samples, want the %d completed trials", len(d.X), d.Campaign.Completed)
	}
}
