package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ipas/internal/interp"
)

// unit is a journal-scoped slice of a campaign's trial space: trials
// [lo, hi) of the plan list, recorded into j under unit-local indices
// t-lo. A plain campaign is one unit over [0, n) on Campaign.Journal; a
// sectioned campaign run by RunSections is one unit per non-empty
// section on that section's journal.
type unit struct {
	lo, hi int
	// j receives the unit's finished trials; nil runs unjournaled.
	j *Journal
	// sites, when non-nil, is the section's sorted global SiteID list:
	// journal records hold ordinals into it instead of global SiteIDs,
	// so a section's journal survives edits that renumber other
	// sections' sites.
	sites []int
}

// local rewrites a trial's global SiteID into the unit's journal form.
func (u *unit) local(tr Trial) Trial {
	if u.sites == nil {
		return tr
	}
	i := sort.SearchInts(u.sites, tr.Site)
	if i < len(u.sites) && u.sites[i] == tr.Site {
		tr.Site = i
	} else {
		tr.Site = -1
	}
	return tr
}

// global is the inverse of local, applied on restore.
func (u *unit) global(tr Trial) Trial {
	if u.sites == nil {
		return tr
	}
	if tr.Site >= 0 && tr.Site < len(u.sites) {
		tr.Site = u.sites[tr.Site]
	} else {
		tr.Site = -1
	}
	return tr
}

// restore settles the unit's slots of trials from a journal's restored
// records (unit-local indices) and returns how many it settled.
func (u *unit) restore(trials []Trial, prev map[int]Trial) int {
	n := 0
	for t, tr := range prev {
		if t < 0 || t >= u.hi-u.lo || tr.Status == TrialPending {
			continue
		}
		trials[u.lo+t] = u.global(tr)
		n++
	}
	return n
}

// runUnits is the local trial runner: it executes every still-pending
// trial of out on Workers goroutines, records each finished trial in
// its unit's journal, and reports Progress(done, total, failed,
// deadlocked) with restored trials counted in every tally. Units are
// disjoint and sorted by lo. It returns how many trials ran, and the
// campaign error: ctx.Err() on cancellation (pending trials stay
// pending for resume), else the joined per-trial and journal errors.
func (p *Prepared) runUnits(ctx context.Context, plans []interp.FaultPlan, out *CampaignResult, units []unit) (int, error) {
	var pending []int
	done, failed, deadlocked := 0, 0, 0
	for t, tr := range out.Trials {
		if tr.Status == TrialPending {
			pending = append(pending, t)
			continue
		}
		done++
		if tr.Status == TrialFailed {
			failed++
		}
		if tr.Deadlock != "" {
			deadlocked++
		}
	}
	workers := p.c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pending))

	var (
		mu         sync.Mutex
		executed   int
		journalErr error
		total      = len(out.Trials)
	)
	record := func(t int, tr Trial) {
		mu.Lock()
		defer mu.Unlock()
		executed++
		done++
		if tr.Status == TrialFailed {
			failed++
		}
		if tr.Deadlock != "" {
			deadlocked++
		}
		u := &units[sort.Search(len(units), func(i int) bool { return units[i].hi > t })]
		if u.j != nil {
			if err := u.j.Record(t-u.lo, u.local(tr)); err != nil && journalErr == nil {
				journalErr = err
			}
		}
		if p.c.Progress != nil {
			p.c.Progress(done, total, failed, deadlocked)
		}
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				tr := p.RunTrial(ctx, t, plans[t])
				if tr.Status == TrialPending {
					continue // cancelled mid-trial; re-run on resume
				}
				out.Trials[t] = tr
				record(t, tr)
			}
		}()
	}
feed:
	for _, t := range pending {
		select {
		case next <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	var errs []error
	if ferr := out.Finalize(); ferr != nil {
		errs = append(errs, ferr)
	}
	if journalErr != nil {
		errs = append(errs, fmt.Errorf("fault: journal write: %w", journalErr))
	}
	if err := ctx.Err(); err != nil {
		return executed, err
	}
	return executed, errors.Join(errs...)
}
