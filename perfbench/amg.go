package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ipas/internal/fault"
)

func setupAMG(ctx context.Context, req request) (float64, error) {
	t := time.Now()
	_, _, _, err := load(ctx, "AMG", &fault.Campaign{Seed: req.Seed})
	return seconds(time.Since(t)), err
}

// runAMG runs a journaled single-bit campaign on AMG input 1. Untraced,
// it is fault.Campaign.RunContext; traced, the harness drives Prepare,
// Plans, RunTrial, Journal.Record and Finalize itself with the same
// worker count, and its trials must equal RunContext's byte for byte.
func runAMG(ctx context.Context, req request, trace bool) (*repResult, error) {
	t0 := time.Now()
	j, err := fault.OpenJournal(filepath.Join(req.Scratch, "amg.jsonl"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	c := &fault.Campaign{Seed: req.Seed, Workers: req.Settings.Procs, Journal: j}
	_, prep, st, err := load(ctx, "AMG", c)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	n := req.Settings.AMGTrials
	l := map[string]float64{}
	var res *fault.CampaignResult
	if trace {
		st.into(l)
		res, err = tracedCampaign(ctx, c, prep, n, l)
	} else {
		res, err = c.RunContext(ctx, n)
	}
	if res == nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	wall := time.Since(t0)

	out := &repResult{
		SetupS: seconds(setup), WallS: seconds(wall), Layer: l,
		Attempted: n, Failed: n - res.Completed, Trials: res.Completed,
		Fingerprint: fingerprint(res.Trials),
	}
	if err != nil {
		out.Problems = append(out.Problems, err.Error())
	}
	if out.Failed > 0 {
		out.Problems = append(out.Problems, fmt.Sprintf("%d of %d trials did not complete (%s)", out.Failed, n, res.ErrorSummary()))
	}
	return out, nil
}

// tracedCampaign is fault.Campaign.RunContext's loop, driven from the
// benchmark with every trial and journal append timed.
func tracedCampaign(ctx context.Context, c *fault.Campaign, prep *fault.Prepared, n int, l map[string]float64) (*fault.CampaignResult, error) {
	plans := prep.Plans(n)
	out := prep.NewResult(plans)
	if _, err := c.Journal.Begin(prep.Meta(n)); err != nil {
		return nil, err
	}

	var (
		mu          sync.Mutex
		trialMS     durations
		recordUS    durations
		busy        [fault.NumOutcomes]time.Duration
		busyAll     time.Duration
		journalErr  error
		wg          sync.WaitGroup
		next        = make(chan int)
		workers     = min(c.Workers, n)
		trialsStart = time.Now()
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				start := time.Now()
				tr := prep.RunTrial(ctx, t, plans[t])
				d := time.Since(start)
				out.Trials[t] = tr
				mu.Lock()
				rec := time.Now()
				if err := c.Journal.Record(t, tr); err != nil && journalErr == nil {
					journalErr = err
				}
				recordUS = append(recordUS, float64(time.Since(rec))/float64(time.Microsecond))
				trialMS = append(trialMS, ms(d))
				busyAll += d
				if tr.Status == fault.TrialCompleted {
					busy[tr.Outcome] += d
				}
				mu.Unlock()
			}
		}()
	}
	for t := range n {
		next <- t
	}
	close(next)
	wg.Wait()
	phase := time.Since(trialsStart)
	err := out.Finalize()
	if journalErr != nil {
		return out, fmt.Errorf("journal write: %w", journalErr)
	}

	// Trials record the injected instance's index among rank 0's
	// injectable instances, not its dynamic instruction position; the
	// pre-injection count is computed by scaling it to the golden run's
	// instruction density.
	scale := float64(prep.Golden.TotalDyn) / float64(prep.Population)
	var pre, post float64
	retries := 0
	for _, tr := range out.Trials {
		if tr.Status == fault.TrialCompleted {
			pre += float64(tr.Index) * scale
			post += float64(tr.Latency)
		}
		retries += max(tr.Attempts-1, 0)
	}
	l["fault.trial_ms.p50"] = trialMS.p(0.5)
	l["fault.trial_ms.p99"] = trialMS.p(0.99)
	l["fault.trial_busy_s.symptom"] = seconds(busy[fault.OutcomeSymptom])
	l["fault.trial_busy_s.detected"] = seconds(busy[fault.OutcomeDetected])
	l["fault.trial_busy_s.masked"] = seconds(busy[fault.OutcomeMasked])
	l["fault.trial_busy_s.soc"] = seconds(busy[fault.OutcomeSOC])
	l["fault.pre_injection_instrs"] = pre
	l["fault.post_injection_instrs"] = post
	l["fault.trial_instrs_per_s"] = (pre + post) / seconds(busyAll)
	l["fault.journal_record_us.p50"] = recordUS.p(0.5)
	l["fault.journal_record_us.p99"] = recordUS.p(0.99)
	l["fault.worker_idle_share"] = 1 - seconds(busyAll)/(float64(workers)*seconds(phase))
	l["fault.retries"] = float64(retries)
	return out, err
}
