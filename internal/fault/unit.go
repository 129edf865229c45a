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

// Unit is a journal-scoped slice of a campaign's trial space: trials
// [Lo, Hi) of the plan list, recorded into Journal. A plain campaign is
// one unit over [0, n) on Campaign.Journal; a sectioned campaign run by
// RunSections is one unit per non-empty section on that section's
// journal; a sharded campaign run by RunSharded is one unit per shard
// on that shard's journal.
type Unit struct {
	Lo, Hi int
	// Journal receives the unit's finished trials; nil runs
	// unjournaled.
	Journal *Journal
	// sites, when non-nil, is the section's sorted global SiteID list:
	// a section journal holds section-local records — index t-Lo and an
	// ordinal into sites instead of the global SiteID — so it survives
	// edits that renumber other sections' sites. Every other unit
	// journals campaign-global indices and sites.
	sites []int
}

// base is the campaign index of the unit journal's record 0.
func (u *Unit) base() int {
	if u.sites == nil {
		return 0
	}
	return u.Lo
}

// local rewrites a trial's global SiteID into the unit's journal form.
func (u *Unit) local(tr Trial) Trial {
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
func (u *Unit) global(tr Trial) Trial {
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

// restore settles the unit's slots of trials from its journal's
// restored records and returns how many it settled.
func (u *Unit) restore(trials []Trial, prev map[int]Trial) int {
	n := 0
	for t, tr := range prev {
		t += u.base()
		if t < u.Lo || t >= u.Hi || tr.Status == TrialPending {
			continue
		}
		trials[t] = u.global(tr)
		n++
	}
	return n
}

// RunUnits is the local trial runner: it executes every still-pending
// trial of out (plans[t] for trial t) on the campaign's Workers
// goroutines, records each finished trial in its unit's journal, and
// reports the campaign's Progress(done, total, failed, deadlocked) with
// already-settled trials counted in every tally. Units are disjoint,
// sorted by Lo, and cover every pending trial. It returns how many
// trials ran, and the campaign error: ctx.Err() on cancellation
// (pending trials stay pending for resume), else the joined per-trial
// errors and, if an append failed, one error wrapping ErrJournalWrite.
func (p *Prepared) RunUnits(ctx context.Context, plans []interp.FaultPlan, out *CampaignResult, units []Unit) (int, error) {
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
		u := &units[sort.Search(len(units), func(i int) bool { return units[i].Hi > t })]
		if u.Journal != nil {
			if err := u.Journal.Record(t-u.base(), u.local(tr)); err != nil && journalErr == nil {
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
		errs = append(errs, fmt.Errorf("fault: %w: %w", ErrJournalWrite, journalErr))
	}
	if err := ctx.Err(); err != nil {
		return executed, err
	}
	return executed, errors.Join(errs...)
}
