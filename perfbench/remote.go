package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipas/internal/campaign"
	"ipas/internal/compose"
	"ipas/internal/fault"
)

// remoteSpec is the sectioned FFT campaign, coverage 1, as flipit
// -remote -sections submits it.
func remoteSpec(req request) campaign.Spec {
	s := campaign.Spec{
		Workload: "FFT", Input: 1, Seed: req.Seed, Ranks: 1, Shards: req.Settings.RemoteShards,
		Sections: true, Coverage: 1, MaxPerSection: req.Settings.MaxPerSection,
	}
	s.Normalize()
	return s
}

// coordinator is an in-process campaign.Server on a loopback port.
type coordinator struct {
	srv  *campaign.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startCoordinator(req request, wrap func(http.Handler) http.Handler) (*coordinator, error) {
	srv, err := campaign.New(campaign.Options{
		Dir:      filepath.Join(req.Scratch, "coordinator"),
		LeaseTTL: req.Settings.LeaseTTL,
		Backoff:  req.Settings.LeaseBackoff,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	co := &coordinator{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(co.done)
		co.hs.Serve(ln)
	}()
	return co, nil
}

// close stops the HTTP server, waits for its handlers, then closes the
// coordinator's journals.
func (co *coordinator) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := co.hs.Shutdown(ctx)
	<-co.done
	return errors.Join(err, co.srv.Close())
}

// newClient returns an HTTP client with a transport of its own.
func newClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{}
	}
	return &http.Client{Transport: rt}
}

func setupRemote(ctx context.Context, req request) (float64, error) {
	t := time.Now()
	co, err := startCoordinator(req, nil)
	if err != nil {
		return 0, err
	}
	cl := &campaign.Client{Base: co.url, HTTP: newClient(nil)}
	_, _, err = cl.Submit(ctx, remoteSpec(req))
	setup := time.Since(t)
	return seconds(setup), errors.Join(err, co.close())
}

// sectionedOutcome is what the remote run and the local reference must
// agree on.
type sectionedOutcome struct {
	Trials []fault.Trial
	Dist   compose.Distribution
}

// runRemote submits the sectioned campaign to an in-process coordinator,
// runs it with in-process workers, waits for the result and composes the
// whole-program distribution, as flipit -remote -sections does.
func runRemote(ctx context.Context, req request, trace bool) (*repResult, error) {
	var rt *remoteTrace
	if trace {
		rt = newRemoteTrace(req.Settings.Procs)
	}
	t0 := time.Now()
	co, err := startCoordinator(req, rt.wrap)
	if err != nil {
		return nil, err
	}
	defer co.close()
	cl := &campaign.Client{Base: co.url, HTTP: newClient(nil)}
	spec := remoteSpec(req)
	ta := time.Now()
	sub, _, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	admission := time.Since(ta)

	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := range req.Settings.Procs {
		w := &campaign.Worker{Server: co.url, Name: fmt.Sprintf("w%d", i), Poll: req.Settings.WorkerPoll, HTTP: newClient(rt.transport(i))}
		w.BeforeTrial = rt.beforeTrial(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	workStart := time.Now()
	res, err := cl.WaitResult(ctx, sub.ID, req.Settings.ResultPoll, nil)
	resultAt := time.Now()
	stop()
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Re-derive the deterministic section plan locally and compose.
	c, err := spec.Build()
	if err != nil {
		return nil, err
	}
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	plan := prep.SectionPlan()
	tc := time.Now()
	dist, err := compose.Whole(compose.FromSectionResult(&fault.SectionResult{CampaignResult: res, Plan: plan, Executed: res.Completed}))
	composeDur := time.Since(tc)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)

	n := len(res.Trials)
	out := &repResult{
		SetupS: seconds(setup), WallS: seconds(wall), Layer: map[string]float64{},
		Attempted: plan.Total, Failed: plan.Total - res.Completed, Trials: res.Completed,
		Fingerprint: fingerprint(sectionedOutcome{res.Trials, dist}),
	}
	if n != plan.Total || out.Failed > 0 {
		out.Problems = append(out.Problems, fmt.Sprintf("%d of %d planned trials completed (%d returned)", res.Completed, plan.Total, n))
	}
	if trace {
		p, err := cl.Progress(ctx, sub.ID)
		if err != nil {
			return nil, err
		}
		rt.report(out.Layer, p, resultAt.Sub(workStart))
		l := out.Layer
		l["campaign.admission_ms"] = ms(admission)
		l["campaign.completion_lag_ms"] = ms(resultAt.Sub(rt.lastAck))
		l["sections.count"] = float64(len(plan.Alloc))
		l["sections.trials"] = float64(plan.Total)
		l["compose.whole_ms"] = ms(composeDur)
		// The coordinator runs set-up inside its submit handler; time the
		// same steps cold, after the timed region.
		_, _, st, err := load(ctx, "FFT", &fault.Campaign{Seed: req.Seed, Sections: true, Coverage: spec.Coverage, MaxPerSection: spec.MaxPerSection, NoGoldenCache: true})
		if err != nil {
			return nil, err
		}
		st.into(l)
	}
	return out, nil
}

// referenceRemote runs the same sectioned campaign locally.
func referenceRemote(ctx context.Context, req request) (*repResult, error) {
	spec := remoteSpec(req)
	c, err := spec.Build()
	if err != nil {
		return nil, err
	}
	c.Workers = req.Settings.Procs
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	res, err := prep.RunSections(ctx, "")
	if err != nil {
		return nil, err
	}
	dist, err := compose.Whole(compose.FromSectionResult(res))
	if err != nil {
		return nil, err
	}
	out := &repResult{Fingerprint: fingerprint(sectionedOutcome{res.Trials, dist})}
	if res.Completed != res.Plan.Total {
		out.Problems = append(out.Problems, fmt.Sprintf("reference completed %d of %d trials", res.Completed, res.Plan.Total))
	}
	return out, nil
}

// remoteTrace measures the coordinator from outside: an http.Handler
// wrapper around the Server, a RoundTripper on each Worker.HTTP, and the
// Worker.BeforeTrial hook. A nil *remoteTrace traces nothing.
type remoteTrace struct {
	mu                      sync.Mutex
	acquire, granted        int
	heartbeat, records      int
	serverMS, rttMS, trials durations
	busy                    time.Duration
	trialStart              []time.Time
	lastAck                 time.Time
}

func newRemoteTrace(workers int) *remoteTrace {
	return &remoteTrace{trialStart: make([]time.Time, workers)}
}

func (rt *remoteTrace) wrap(h http.Handler) http.Handler {
	if rt == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		d := time.Since(start)
		if r.Method != http.MethodPost {
			return
		}
		rt.mu.Lock()
		defer rt.mu.Unlock()
		switch {
		case r.URL.Path == "/api/v1/leases":
			rt.acquire++
			if sw.status == http.StatusOK {
				rt.granted++
			}
		case strings.HasSuffix(r.URL.Path, "/heartbeat"):
			rt.heartbeat++
		case strings.HasSuffix(r.URL.Path, "/records"):
			rt.records++
			rt.serverMS = append(rt.serverMS, ms(d))
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// transport returns worker i's RoundTripper (nil: the default).
func (rt *remoteTrace) transport(i int) http.RoundTripper {
	if rt == nil {
		return nil
	}
	return &tracedTransport{rt: rt, worker: i, base: &http.Transport{}}
}

// beforeTrial returns worker i's trial-start hook (nil: none).
func (rt *remoteTrace) beforeTrial(i int) func(string, int, int) error {
	if rt == nil {
		return nil
	}
	return func(string, int, int) error {
		rt.mu.Lock()
		rt.trialStart[i] = time.Now()
		rt.mu.Unlock()
		return nil
	}
}

// tracedTransport times records round trips; a worker posts a trial's
// record as soon as the trial ends, so the post's start closes the
// trial's busy interval.
type tracedTransport struct {
	rt     *remoteTrace
	worker int
	base   http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/records") {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	rt := t.rt
	rt.mu.Lock()
	if s := rt.trialStart[t.worker]; !s.IsZero() {
		rt.busy += start.Sub(s)
		rt.trials = append(rt.trials, ms(start.Sub(s)))
		rt.trialStart[t.worker] = time.Time{}
	}
	rt.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	rt.mu.Lock()
	rt.rttMS = append(rt.rttMS, ms(end.Sub(start)))
	if err == nil && end.After(rt.lastAck) {
		rt.lastAck = end
	}
	rt.mu.Unlock()
	return resp, err
}

// report fills the coordinator metrics; work is the campaign's wall time
// from worker start to result.
func (rt *remoteTrace) report(l map[string]float64, p campaign.Progress, work time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	requeued := 0
	for _, s := range p.Shards {
		requeued += max(s.Attempts-1, 0)
	}
	l["campaign.records_server_ms.p50"] = rt.serverMS.p(0.5)
	l["campaign.records_server_ms.p99"] = rt.serverMS.p(0.99)
	l["campaign.records_rtt_ms.p50"] = rt.rttMS.p(0.5)
	l["campaign.records_rtt_ms.p99"] = rt.rttMS.p(0.99)
	l["campaign.requests.acquire"] = float64(rt.acquire)
	l["campaign.requests.heartbeat"] = float64(rt.heartbeat)
	l["campaign.requests.records"] = float64(rt.records)
	if rt.acquire > 0 {
		l["campaign.acquire_granted_ratio"] = float64(rt.granted) / float64(rt.acquire)
	}
	l["campaign.worker_busy_share"] = seconds(rt.busy) / (float64(len(rt.trialStart)) * seconds(work))
	l["campaign.leases_expired"] = float64(requeued)
	l["fault.trial_ms.p50"] = rt.trials.p(0.5)
	l["fault.trial_ms.p99"] = rt.trials.p(0.99)
}
