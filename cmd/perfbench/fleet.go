package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cos/internal/experiments"
	"cos/internal/fleet"
	"cos/internal/obs/event"
	"cos/internal/serve"
)

// figures-fleet: a fleet.Coordinator over two single-shard cos-serve
// backends (each with a WAL store in a temporary directory) regenerates fig3
// (a TaskSet fanned out as figure_task jobs) and then fig7 (one
// whole-figure job), pass after pass with a fresh experiment seed each
// pass so no measured pass hits the backends' caches.
const (
	fleetScale    = 0.05
	fleetBackends = 2
	fleetSetups   = 5
)

var fleetFigures = []string{"fig3", "fig7"}

// request is one HTTP exchange a backend's client made, from sending the
// request to closing the response body.
type request struct {
	method, path string
	code         int
	start, end   time.Time
}

// recorder is an http.RoundTripper that logs every request; it times the
// typed client's calls from outside.
type recorder struct {
	base http.RoundTripper
	mu   sync.Mutex
	reqs []request
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := request{method: req.Method, path: req.URL.Path, start: time.Now()}
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rec.code = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rec.end = time.Now()
		r.mu.Lock()
		r.reqs = append(r.reqs, rec)
		r.mu.Unlock()
	}}
	return resp, nil
}

// since returns the requests logged after the first n.
func (r *recorder) since(n int) []request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]request(nil), r.reqs[n:]...)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reqs)
}

// timedBody calls done once, when the response body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// hostRouter sends each request to the transport of its backend.
type hostRouter map[string]http.RoundTripper

func (h hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, ok := h[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no backend at %s", req.URL.Host)
	}
	return rt.RoundTrip(req)
}

// timedBackend wraps a fleet backend and records every Run with the HTTP
// requests it made. The coordinator runs one worker per backend, so the
// requests logged during a Run are that Run's.
type timedBackend struct {
	fleet.Backend
	url string
	rec *recorder

	mu   sync.Mutex
	runs []backendRun
}

type backendRun struct {
	spec       serve.Spec
	body       []byte
	start, end time.Time
	reqs       []request
}

func (b *timedBackend) Run(ctx context.Context, spec serve.Spec) ([]byte, error) {
	n := b.rec.len()
	start := time.Now()
	body, err := b.Backend.Run(ctx, spec)
	end := time.Now()
	b.mu.Lock()
	b.runs = append(b.runs, backendRun{spec: spec, body: body, start: start, end: end, reqs: b.rec.since(n)})
	b.mu.Unlock()
	return body, err
}

// taken returns the Runs recorded so far.
func (b *timedBackend) taken() []backendRun {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]backendRun(nil), b.runs...)
}

// figurePass is one regeneration of every figure in fleetFigures.
type figurePass struct {
	seed    int64
	csv     map[string][]byte
	figSecs map[string]float64
	total   time.Duration
}

type fleetRun struct {
	setups    []float64
	rssMB     float64
	passes    []*figurePass
	wall      time.Duration
	backends  []*timedBackend
	journal   *event.Journal
	peakConns int

	// Traced runs only: per backend, the Runs of the measured passes, then
	// the same specs run again on the same backend (served from its result
	// cache), and the backend's job list. repeatMismatches counts repeats
	// whose body differs from the first run's.
	measured, repeated [][]backendRun
	repeatMismatches   int
	statuses           [][]serve.Status
}

func runFiguresFleet(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	var base *fleetRun
	d := env.duration
	if env.traced {
		var err error
		if base, err = fleetRunFor(ctx, env, d/2, false); err != nil {
			return nil, err
		}
		d /= 2
	}
	fr, err := fleetRunFor(ctx, env, d, env.traced)
	if err != nil {
		return nil, err
	}
	if err := fr.check(ctx, rep); err != nil {
		return nil, err
	}
	passS := fr.passSeconds()
	rep.e2e["setup_s"] = median(fr.setups)
	rep.e2e["peak_rss_mb"] = fr.rssMB
	rep.e2e["op_p50_ms"] = 1000 * median(passS)
	rep.e2e["ops_per_s"] = float64(len(fr.passes)*len(fleetFigures)) / fr.wall.Seconds()
	rep.detail["figure_s"] = median(passS)
	rep.detail["figure_p90_s"] = quantile(passS, 0.90)
	rep.detail["passes"] = len(fr.passes)
	rep.detail["scale"] = fleetScale
	rep.detail["peak_connections"] = fr.peakConns
	if env.traced {
		fr.layers(rep.layers)
		rep.layers["bench.trace_overhead_frac"] = median(passS)/median(base.passSeconds()) - 1
		// The link and PHY layers come from a short traced link pass, so
		// every traced run measures every layer of the stack.
		tr, err := linkTraced(ctx, env.seed, layerSweep(env))
		if err != nil {
			return nil, err
		}
		tr.check(rep)
		tr.layers(rep.layers)
	}
	return rep, nil
}

// check folds the run's output checks into rep: every figure must match a
// local serial experiments.Run (computed here, outside the measured
// region) and every cache hit its cold run, within the connection budget.
func (fr *fleetRun) check(ctx context.Context, rep *report) error {
	for _, p := range fr.passes {
		for _, id := range fleetFigures {
			rep.attempted++
			want, err := localFigure(ctx, id, p.seed)
			if err != nil {
				return err
			}
			if !bytes.Equal(want, p.csv[id]) {
				rep.fail(1, id+" CSV differs from a local serial run")
			}
		}
	}
	for _, rs := range fr.repeated {
		rep.attempted += len(rs)
	}
	rep.fail(fr.repeatMismatches, "a cache hit differs from its cold run")
	if fr.peakConns > maxConns {
		rep.correct = false
		rep.detail["failure"] = fmt.Sprintf("fleet held %d connections, budget %d", fr.peakConns, maxConns)
	}
	return nil
}

func (fr *fleetRun) passSeconds() []float64 {
	out := make([]float64, len(fr.passes))
	for i, p := range fr.passes {
		out[i] = p.total.Seconds()
	}
	return out
}

// passSeed derives pass i's experiment seed from the run seed.
func passSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

func localFigure(ctx context.Context, id string, seed int64) ([]byte, error) {
	res, err := experiments.Run(ctx, id, experiments.RunOptions{Scale: fleetScale, Seed: seed, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("local %s: %w", id, err)
	}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// runPass regenerates every figure through the coordinator.
func runPass(ctx context.Context, coord *fleet.Coordinator, seed int64) (*figurePass, error) {
	p := &figurePass{seed: seed, csv: map[string][]byte{}, figSecs: map[string]float64{}}
	t0 := time.Now()
	for _, id := range fleetFigures {
		f0 := time.Now()
		res, err := coord.RunFigure(ctx, id, experiments.RunOptions{Scale: fleetScale, Seed: seed, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", id, err)
		}
		p.figSecs[id] = time.Since(f0).Seconds()
		var b bytes.Buffer
		if err := res.WriteCSV(&b); err != nil {
			return nil, err
		}
		p.csv[id] = b.Bytes()
	}
	p.total = time.Since(t0)
	return p, nil
}

// fleetRunFor starts the backends (timing set-up), regenerates figures
// pass after pass until d has elapsed (at least one pass), and stops the
// backends.
func fleetRunFor(ctx context.Context, env *runEnv, d time.Duration, traced bool) (fr *fleetRun, err error) {
	fr = &fleetRun{}
	var ds []*daemon
	defer func() {
		if serr := stopAll(ds); serr != nil && err == nil {
			err = fmt.Errorf("cos-serve exit: %w", serr)
		}
	}()
	for i := 0; i < fleetSetups; i++ {
		if err := stopAll(ds); err != nil {
			return nil, fmt.Errorf("stopping set-up daemons: %w", err)
		}
		ds = nil
		t0 := time.Now()
		for b := 0; b < fleetBackends; b++ {
			dir := filepath.Join(env.workDir, fmt.Sprintf("fleet-%v-%d-%d", traced, i, b))
			dmn, err := startDaemon(ctx, env.serveBin, dir, "-shards", "1", "-data-dir", filepath.Join(dir, "data"))
			if err != nil {
				return nil, err
			}
			ds = append(ds, dmn)
		}
		fr.setups = append(fr.setups, time.Since(t0).Seconds())
	}

	// fleet.Host's clients use http.DefaultClient: route their requests
	// to one metered, recording transport per backend.
	meter := &connMeter{}
	router := hostRouter{}
	var backends []fleet.Backend
	for _, dmn := range ds {
		tr := meter.transport()
		defer tr.CloseIdleConnections()
		rec := &recorder{base: tr}
		router[strings.TrimPrefix(dmn.url, "http://")] = rec
		tb := &timedBackend{Backend: fleet.Host(dmn.url), url: dmn.url, rec: rec}
		fr.backends = append(fr.backends, tb)
		backends = append(backends, tb)
	}
	http.DefaultClient.Transport = router
	defer func() { http.DefaultClient.Transport = nil }()
	fr.journal = event.New(1 << 16)
	coord := fleet.New(fleet.Config{Backends: backends, Journal: fr.journal, Seed: env.seed})
	defer coord.Close()

	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := runPass(ctx, coord, passSeed(env.seed, i))
		if err != nil {
			return nil, err
		}
		fr.passes = append(fr.passes, p)
	}
	fr.wall = time.Since(start)

	var rss float64
	for _, dmn := range ds {
		r, err := dmn.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += r
	}
	fr.rssMB = rss
	if traced {
		for _, tb := range fr.backends {
			measured := tb.taken()
			for _, r := range measured {
				body, err := tb.Run(ctx, r.spec)
				if err != nil {
					return nil, fmt.Errorf("repeating a task: %w", err)
				}
				if !bytes.Equal(body, r.body) {
					fr.repeatMismatches++
				}
			}
			fr.measured = append(fr.measured, measured)
			fr.repeated = append(fr.repeated, tb.taken()[len(measured):])
			sts, err := listJobs(ctx, tb.url)
			if err != nil {
				return nil, fmt.Errorf("listing jobs: %w", err)
			}
			fr.statuses = append(fr.statuses, sts)
		}
	}
	fr.peakConns = meter.peakOpen()
	return fr, nil
}

// listJobs reads a backend's job list (GET /jobs).
func listJobs(ctx context.Context, url string) ([]serve.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := plainHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs: %s", resp.Status)
	}
	var sts []serve.Status
	return sts, json.NewDecoder(resp.Body).Decode(&sts)
}

// runJobID is the job a Run settled: the ID in its result request.
func runJobID(r backendRun) string {
	for _, q := range r.reqs {
		if strings.HasSuffix(q.path, "/result") {
			return strings.TrimSuffix(strings.TrimPrefix(q.path, "/jobs/"), "/result")
		}
	}
	return ""
}

// layers derives the fleet, serve and client layer metrics from every
// backend Run, its HTTP requests and the servers' job timestamps.
func (fr *fleetRun) layers(out map[string]float64) {
	var runMS, overhead, submitUS, resultUS, queueMS, serveMS, notifyMS, hitMS, coldMS []float64
	var busy time.Duration
	tasks, hits, repeats, refused, failed, bodyBytes := 0, 0, 0, 0, 0, 0
	for i := range fr.backends {
		byID := map[string]serve.Status{}
		for _, st := range fr.statuses[i] {
			byID[st.ID] = st
			if st.State == serve.StateFailed.String() {
				failed++
			}
		}
		all := append(fr.measured[i][:len(fr.measured[i]):len(fr.measured[i])], fr.repeated[i]...)
		for _, r := range all {
			bodyBytes += len(r.body)
			var lastPoll time.Time
			for _, q := range r.reqs {
				switch {
				case q.method == http.MethodPost && q.path == "/jobs":
					submitUS = append(submitUS, us(q.end.Sub(q.start)))
					if q.code == http.StatusTooManyRequests {
						refused++
					}
				case strings.HasSuffix(q.path, "/result"):
					resultUS = append(resultUS, us(q.end.Sub(q.start)))
				case q.method == http.MethodGet && strings.HasPrefix(q.path, "/jobs/"):
					lastPoll = q.end
				}
			}
			st := byID[runJobID(r)]
			if st.Cached {
				continue
			}
			coldMS = append(coldMS, ms(r.end.Sub(r.start)))
			if st.StartedAt != nil && st.FinishedAt != nil {
				queueMS = append(queueMS, ms(st.StartedAt.Sub(st.SubmittedAt)))
				serveMS = append(serveMS, ms(st.FinishedAt.Sub(*st.StartedAt)))
				overhead = append(overhead, ms(r.end.Sub(r.start)-st.FinishedAt.Sub(st.SubmittedAt)))
				if !lastPoll.IsZero() {
					notifyMS = append(notifyMS, ms(lastPoll.Sub(*st.FinishedAt)))
				}
			}
		}
		for _, r := range fr.measured[i] {
			tasks++
			busy += r.end.Sub(r.start)
			runMS = append(runMS, ms(r.end.Sub(r.start)))
		}
		for _, r := range fr.repeated[i] {
			repeats++
			if byID[runJobID(r)].Cached {
				hits++
				hitMS = append(hitMS, ms(r.end.Sub(r.start)))
			}
		}
	}
	retries, failovers := 0, 0
	for _, ev := range fr.journal.Snapshot(0) {
		switch ev.Type {
		case fleet.EventFleetRetry:
			retries++
		case fleet.EventFleetFailover:
			failovers++
		}
	}
	figS := map[string][]float64{}
	for _, p := range fr.passes {
		for id, s := range p.figSecs {
			figS[id] = append(figS[id], s)
		}
	}
	out["fleet.backend_run_ms"] = median(runMS)
	out["fleet.wait_overhead_ms"] = median(overhead)
	out["fleet.backend_busy_frac"] = busy.Seconds() / (float64(len(fr.backends)) * fr.wall.Seconds())
	out["fleet.tasks"] = float64(tasks) / float64(len(fr.passes))
	out["fleet.retries"] = float64(retries)
	out["fleet.failovers"] = float64(failovers)
	out["experiments.fig3_s"] = median(figS["fig3"])
	out["experiments.fig7_s"] = median(figS["fig7"])
	out["client.submit_us"] = median(submitUS)
	out["client.result_us"] = median(resultUS)
	out["serve.queue_wait_ms"] = median(queueMS)
	out["serve.run_ms"] = median(serveMS)
	out["serve.notify_ms"] = median(notifyMS)
	out["serve.hit_p50_ms"] = median(hitMS)
	out["serve.cold_p50_ms"] = median(coldMS)
	out["serve.cache_hit_frac"] = ratio(hits, repeats)
	out["serve.refused"] = float64(refused)
	out["serve.failed"] = float64(failed)
	out["serve.result_bytes_per_job"] = ratio(bodyBytes, tasks+repeats)
}
