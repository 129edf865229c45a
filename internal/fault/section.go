package fault

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ipas/internal/interp"
	"ipas/internal/ir"
)

// This file implements sectioned campaigns: the trial space is
// stratified by IR section (outermost loop nests and straight-line
// runs; see internal/ir/section.go), each stratum gets its own
// deterministic allocation and seed derived from the section's content
// fingerprint, and per-section journals make re-analysis after a code
// edit incremental — only sections whose fingerprints changed re-run.
//
// The substrate serves two kinds of run:
//
//   - Any engine (Campaign.RunContext, Campaign.RunSharded,
//     internal/campaign) can run a sectioned campaign as an ordinary
//     one whose Plans carry section targets: Prepare captures the
//     golden boundary trace, Plans returns the concatenated
//     per-section lists, and Meta pins the partition fingerprint in a
//     distinct journal format.
//
//   - RunSections adds incrementality: each non-empty section is one
//     unit of the local trial runner (unit.go) with its own journal,
//     named by fingerprint and holding section-local site ordinals, so
//     a journal stays valid even when edits elsewhere shift global
//     SiteIDs. A journal whose header still matches is reused
//     wholesale; a stale one (the section's code changed) is rebuilt
//     and its trials re-run.

// SectionAlloc is one section's slice of a sectioned trial space.
type SectionAlloc struct {
	// Section is the module-global section ID (ir.Section.ID).
	Section int
	// FP is the section's content fingerprint.
	FP string
	// Label is the section's human-readable name ("@fn#i(loop hdr)").
	Label string
	// Pop is the section's injectable dynamic-instance population in
	// the golden run — the space Index draws from.
	Pop int64
	// Dmin is the dynamic count of the section's rarest exercised site.
	Dmin int64
	// Trials is the allocation: ceil(Coverage * Pop / Dmin), capped by
	// Campaign.MaxPerSection.
	Trials int
	// Seed drives this section's plan sequence; derived from the
	// campaign seed and FP, so it survives edits to other sections.
	Seed int64
	// Start is the section's offset in the concatenated plan list.
	Start int
}

// SectionPlan is the sectioned substrate Prepare builds: the partition,
// the golden boundary trace, and the per-section allocations.
type SectionPlan struct {
	// Partition is the module's section partition.
	Partition *ir.Sections
	// Trace is the golden run's boundary capture.
	Trace *interp.SectionTrace
	// FP is the whole-partition fingerprint (journal headers pin it).
	FP string
	// Alloc holds one entry per section, in section-ID order.
	Alloc []SectionAlloc
	// Total is the summed trial count.
	Total int
	// MonoTrials is the analytic trial count a monolithic campaign
	// needs for the same per-site coverage target:
	// ceil(Coverage * Population / dmin-global). The sectioned saving
	// is MonoTrials / Total.
	MonoTrials int64

	tables   *interp.SectionTables
	trialCfg *interp.SectionConfig
	model    ErrorModel
}

// sectionSeed derives a per-section plan seed from the campaign seed
// and the section's content fingerprint: stable across edits elsewhere
// in the module, changed whenever the section itself changes.
func sectionSeed(seed int64, fp string) int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h := sha256.New()
	h.Write(b[:])
	h.Write([]byte(fp))
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]))
}

// newSectionPlan sizes every section's allocation from the golden run.
func newSectionPlan(c *Campaign, parts *ir.Sections, tables *interp.SectionTables, golden *interp.Result) (*SectionPlan, error) {
	trace := golden.Sections
	if trace == nil {
		return nil, fmt.Errorf("fault: sectioned golden run recorded no boundary trace")
	}
	sp := &SectionPlan{
		Partition: parts,
		Trace:     trace,
		FP:        parts.Fingerprint(),
		tables:    tables,
		trialCfg:  &interp.SectionConfig{Tables: tables, Golden: trace},
		model:     c.model(),
	}
	var dminGlobal int64 = -1
	for sid, s := range parts.All {
		a := SectionAlloc{
			Section: sid,
			FP:      s.Fingerprint,
			Label:   s.String(),
			Pop:     trace.Pops[sid],
			Seed:    sectionSeed(c.Seed, s.Fingerprint),
			Start:   sp.Total,
		}
		if a.Pop > 0 {
			for _, site := range parts.Sites(sid) {
				n := golden.SiteCounts[site]
				if n > 0 && (a.Dmin <= 0 || n < a.Dmin) {
					a.Dmin = n
				}
				if n > 0 && (dminGlobal <= 0 || n < dminGlobal) {
					dminGlobal = n
				}
			}
			if a.Dmin <= 0 {
				a.Dmin = a.Pop // defensive; Pop > 0 implies an exercised site
			}
			n := (int64(c.Coverage)*a.Pop + a.Dmin - 1) / a.Dmin
			if c.MaxPerSection > 0 && n > int64(c.MaxPerSection) {
				n = int64(c.MaxPerSection)
			}
			a.Trials = int(n)
		}
		sp.Total += a.Trials
		sp.Alloc = append(sp.Alloc, a)
	}
	if sp.Total == 0 {
		return nil, fmt.Errorf("fault: no section has injectable dynamic instances")
	}
	if dminGlobal <= 0 {
		dminGlobal = golden.Injectable[0]
	}
	sp.MonoTrials = (int64(c.Coverage)*golden.Injectable[0] + dminGlobal - 1) / dminGlobal
	return sp, nil
}

// plans returns the concatenated per-section plan lists. Each section's
// subsequence is a pure function of (campaign seed, section
// fingerprint), so it is bit-identical across runs and unaffected by
// edits to other sections.
func (sp *SectionPlan) plans(n int) []interp.FaultPlan {
	out := make([]interp.FaultPlan, 0, sp.Total)
	for _, a := range sp.Alloc {
		if a.Trials == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(a.Seed))
		for t := 0; t < a.Trials; t++ {
			// Index first, then the model's draws — the same stream
			// discipline as the flat engine, so the single-bit model's
			// sequences match pre-model sectioned journals bit for bit.
			plan := interp.FaultPlan{
				Rank:    0,
				Index:   rng.Int63n(a.Pop),
				Section: int32(a.Section),
			}
			sp.model.Draw(rng, &plan)
			out = append(out, plan)
		}
	}
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// sectionMeta pins one section's journal. GoldenDyn is deliberately 0:
// the whole-program dynamic count changes when *other* sections change,
// and must not invalidate this section's trials — the section
// fingerprint and population pin everything the trials depend on.
func (sp *SectionPlan) sectionMeta(a *SectionAlloc) JournalMeta {
	return JournalMeta{
		Format:     JournalFormatSectioned,
		Seed:       a.Seed,
		Trials:     a.Trials,
		Population: a.Pop,
		Model:      ModelName(sp.model),
		SectionFP:  a.FP,
	}
}

// sectionJournalName names a section's journal by fingerprint prefix.
func sectionJournalName(fp string) string {
	if len(fp) > 16 {
		fp = fp[:16]
	}
	return "sec-" + fp + ".jsonl"
}

// SectionStat is one section's disposition in a sectioned run.
type SectionStat struct {
	Section  int    `json:"section"`
	FP       string `json:"fp"`
	Label    string `json:"label"`
	Pop      int64  `json:"pop"`
	Trials   int    `json:"trials"`
	Restored int    `json:"restored"`
}

// SectionResult is a sectioned campaign's outcome: the concatenated
// trials (global SiteIDs, ready for internal/features and
// internal/compose) plus per-section accounting that incremental
// re-analysis and its tests assert against.
type SectionResult struct {
	*CampaignResult
	// Plan is the substrate the trials were drawn from.
	Plan *SectionPlan
	// Stats has one entry per section, in section-ID order.
	Stats []SectionStat
	// Restored counts trials reused from matching per-section journals;
	// Executed counts trials actually run this invocation.
	Restored int
	Executed int
}

// SectionTrials returns section sec's slice of the concatenated trials.
func (r *SectionResult) SectionTrials(sec int) []Trial {
	a := &r.Plan.Alloc[sec]
	return r.Trials[a.Start : a.Start+a.Trials]
}

// RunSections executes the sectioned campaign with per-section journals
// under dir (created if missing; "" disables journaling): sections
// whose journal header still matches — same fingerprint, seed,
// population, allocation — restore their trials without running
// anything; stale journals (the section's code changed, so the
// fingerprint-derived name or header differs) are discarded and
// re-run. This is the edit-one-function re-protect path: after an
// edit, only the changed sections' trial budgets are spent.
func (p *Prepared) RunSections(ctx context.Context, dir string) (*SectionResult, error) {
	sp := p.secs
	if sp == nil {
		return nil, fmt.Errorf("fault: RunSections on a non-sectioned campaign (set Campaign.Sections)")
	}
	plans := sp.plans(sp.Total)
	out := &SectionResult{CampaignResult: p.NewResult(plans), Plan: sp}
	out.CampaignResult.Sections = out
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fault: creating section journal dir: %w", err)
		}
	}

	var units []Unit
	defer func() {
		for _, u := range units {
			if u.Journal != nil {
				u.Journal.Close()
			}
		}
	}()
	for i := range sp.Alloc {
		a := &sp.Alloc[i]
		st := SectionStat{Section: a.Section, FP: a.FP, Label: a.Label, Pop: a.Pop, Trials: a.Trials}
		if a.Trials > 0 {
			u := Unit{Lo: a.Start, Hi: a.Start + a.Trials, sites: sp.Partition.Sites(a.Section)}
			if dir != "" {
				// A stale header is rebuilt, never refused: the
				// fingerprint-named journal caches this section's
				// trials and nothing else.
				j, prev, _, err := openOrRebuild(filepath.Join(dir, sectionJournalName(a.FP)), sp.sectionMeta(a), true)
				if err != nil {
					return nil, err
				}
				u.Journal = j
				st.Restored = u.restore(out.Trials, prev)
			}
			units = append(units, u)
		}
		out.Restored += st.Restored
		out.Stats = append(out.Stats, st)
	}

	executed, err := p.RunUnits(ctx, plans, out.CampaignResult, units)
	out.Executed = executed
	return out, err
}
