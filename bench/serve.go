package main

// serve_cold and serve_hot: client → HTTP → Coordinator → two Station
// backends, all in this process on loopback listeners. Closed loop —
// the real callers (`gpulat submit`, Client.RunJobs) each wait for their
// reply — with stock service.NewClient defaults and one RunJobs call per
// request. serve_cold sends only never-seen jobs (the write path:
// admission, queue, simulate, Cache.Put, status polling, result fetch).
// serve_hot replays a Zipf stream over pre-filled caches (the read path:
// first touches are backend disk hits proxied by the coordinator,
// repeats are in-memory dedup at the coordinator); its simulator does no
// work, so a service-only change shows here and a simulator-only change
// must not.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/service"
)

const numBackends = 2

// tier is one running client-facing topology.
type tier struct {
	stations []*service.Station
	coord    *service.Coordinator // nil: a bare station serves the front door
	servers  []*http.Server
	served   sync.WaitGroup
	front    string   // front-door base URL
	backends []string // backend base URLs
}

// tierOptions are the traced run's hooks; the zero value is the stock
// tier the untraced passes measure.
type tierOptions struct {
	// wrap decorates a server's handler ("front" or "backend").
	wrap func(role string, h http.Handler) http.Handler
	// exec replaces the stations' executor.
	exec runner.ExecFunc
}

func (t *tier) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.served.Add(1)
	go func() {
		defer t.served.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startTier brings up one station per cache dir behind a coordinator
// (or, with coordinator false, the first station alone) and waits until
// every listener answers its health check.
func startTier(cacheDirs []string, coordinator bool, opt tierOptions) (*tier, error) {
	t := &tier{}
	wrap := func(role string, h http.Handler) http.Handler {
		if opt.wrap != nil {
			return opt.wrap(role, h)
		}
		return h
	}
	fail := func(err error) (*tier, error) {
		t.close()
		return nil, err
	}
	for _, dir := range cacheDirs {
		cache, err := service.OpenCache(dir, 0)
		if err != nil {
			return fail(err)
		}
		st := service.NewStation(cache, service.StationConfig{Exec: opt.exec})
		t.stations = append(t.stations, st)
		role := "backend"
		if !coordinator {
			role = "front"
		}
		addr, err := t.listen(wrap(role, service.NewServer(st, cache)))
		if err != nil {
			return fail(err)
		}
		t.backends = append(t.backends, addr)
		if !coordinator {
			break
		}
	}
	t.front = t.backends[0]
	if coordinator {
		coord, err := service.NewCoordinator(service.CoordinatorConfig{Backends: t.backends})
		if err != nil {
			return fail(err)
		}
		t.coord = coord
		if t.front, err = t.listen(wrap("front", service.NewServer(coord, nil))); err != nil {
			return fail(err)
		}
	}
	for _, addr := range append([]string{t.front}, t.backends...) {
		if err := service.NewClient(addr).WaitHealthy(context.Background(), 10*time.Second); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

// close stops every process-like part of the tier and waits for its
// goroutines: listeners first, then the coordinator, then the stations.
func (t *tier) close() {
	if t == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range t.servers {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}
	t.served.Wait()
	if t.coord != nil {
		t.coord.Close()
	}
	for _, st := range t.stations {
		st.Close()
	}
	// The coordinator's forwarding clients use the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// addStats adds the monotonic counters of s to sum.
func addStats(sum *service.StationStats, s service.StationStats) {
	sum.Submitted += s.Submitted
	sum.Executed += s.Executed
	sum.Deduped += s.Deduped
	sum.CacheHits += s.CacheHits
	sum.Rejected += s.Rejected
}

// route names the three calls a job makes, as handlers and clients see
// them.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "submit"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "status"
	case strings.HasPrefix(r.URL.Path, "/v1/results/"):
		return "result"
	}
	return "other"
}

// timedTransport records one client-side span per HTTP call.
type timedTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.tr.add("service.http."+route(r), noParent, r.Header.Get(service.TraceHeader), t0, time.Now())
	return resp, err
}

// timedHandler records one server-side span per request, joined to the
// client's by the X-Gpulat-Trace header the service propagates.
func timedHandler(tr *tracer, role string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		tr.add("service.server."+role+"."+route(r), noParent, r.Header.Get(service.TraceHeader), t0, time.Now())
	})
}

// driveResult is one closed-loop replay's outcome.
type driveResult struct {
	latencyMS []float64 // per verified request
	served    []string  // per request: the served metrics, "" if failed
	failed    int
}

// metricsString is a result's comparable form.
func metricsString(ms []runner.Metric) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s=%v;", m.Name, m.Value)
	}
	return b.String()
}

// drive replays jobs against the front door from `clients` goroutines,
// each sending its next request only after the previous one completed.
// One Client.RunJobs call per request; the request's trace ID doubles
// as its span request ID. traces maps job key → trace ID for the
// station-side executor span.
func drive(front string, transport http.RoundTripper, jobs []runner.Job, clients int,
	tr *tracer, root int, prefix string, traces *sync.Map) driveResult {
	client := service.NewClient(front)
	client.HTTP = &http.Client{Transport: transport}
	out := driveResult{served: make([]string, len(jobs))}
	lat := make([]float64, len(jobs))
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				id := fmt.Sprintf("%s-r%d", prefix, i)
				if traces != nil {
					traces.Store(jobs[i].Key(), id)
				}
				ctx := service.WithTrace(context.Background(), id)
				t0 := time.Now()
				set, err := client.RunJobs(ctx, jobs[i:i+1])
				t1 := time.Now()
				tr.add("client.request", root, id, t0, t1)
				if err != nil || set.Results[0].Failed() || len(set.Results[0].Metrics) == 0 {
					failed.Add(1)
					lat[i] = -1
					continue
				}
				lat[i] = t1.Sub(t0).Seconds() * 1000
				out.served[i] = metricsString(set.Results[0].Metrics)
			}
		}()
	}
	wg.Wait()
	out.failed = int(failed.Load())
	for _, l := range lat {
		if l >= 0 {
			out.latencyMS = append(out.latencyMS, l)
		}
	}
	return out
}

type serveWorkload struct {
	env *env
	hot bool

	dirs     []string
	requests []runner.Job // one pass's request stream, in send order
	// want is the expected served result per request: every request for
	// serve_hot (the pre-fill computed them), a sample for serve_cold.
	want      map[int]string
	transport *http.Transport
	tier      *tier
	passes    int
	traces    sync.Map

	failures []string
	// Sums over passes of the counters the assertions and ratios need.
	coordStats, stationSum service.StationStats
	scrapeMS, lintMS       []float64
}

func (w *serveWorkload) engines() string {
	if w.hot {
		return "none (cache and dedup only)"
	}
	return "event"
}

// sizes returns the population size and the per-pass request count.
func (w *serveWorkload) sizes() (population, requests int) {
	switch {
	case w.hot && w.env.smoke:
		return 60, 300
	case w.hot:
		return 1000, 20000
	case w.env.smoke:
		return 16, 16
	}
	return 200, 200
}

func (w *serveWorkload) setup() error {
	stream := streamCold
	if w.hot {
		stream = streamHot
	}
	n, reqs := w.sizes()
	population := chaseJobs(subSeed(w.env.seed, stream), n)
	w.want = map[int]string{}
	w.requests = population
	root, err := os.MkdirTemp(w.env.tmp, "caches-")
	if err != nil {
		return err
	}
	w.dirs = nil
	for b := 0; b < numBackends; b++ {
		w.dirs = append(w.dirs, filepath.Join(root, fmt.Sprintf("backend%d", b)))
	}
	if w.hot {
		// Pre-fill: simulate every key once, directly, and store the
		// result in both backends' caches, so whichever backend the ring
		// gives a key to answers it from disk.
		set, err := (&runner.Runner{Workers: w.env.nproc}).Run(context.Background(), population)
		if err == nil {
			err = set.Err()
		}
		if err != nil {
			return err
		}
		for _, dir := range w.dirs {
			cache, err := service.OpenCache(dir, 0)
			if err != nil {
				return err
			}
			for i := range set.Results {
				if err := cache.Put(population[i], set.Results[i]); err != nil {
					return err
				}
			}
		}
		ranks := zipfStream(subSeed(w.env.seed, streamZipf), n, reqs, 1.1)
		w.requests = make([]runner.Job, reqs)
		for i, k := range ranks {
			w.requests[i] = population[k]
			w.want[i] = metricsString(set.Results[k].Metrics)
		}
	} else {
		// The oracle for the served-equals-direct check: a sample of the
		// population, simulated by direct runner.Execute calls.
		for i := 0; i < len(population); i += max(len(population)/16, 1) {
			res := runner.Execute(context.Background(), population[i])
			if res.Failed() {
				return fmt.Errorf("oracle %s: %s", population[i].Name(), res.Err)
			}
			w.want[i] = metricsString(res.Metrics)
		}
	}
	w.transport = http.DefaultTransport.(*http.Transport).Clone()
	w.tier, err = startTier(w.dirs, true, tierOptions{})
	return err
}

func (w *serveWorkload) teardown() {
	w.tier.close()
	w.tier = nil
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if len(w.dirs) > 0 {
		os.RemoveAll(filepath.Dir(w.dirs[0]))
	}
}

// prepare rebuilds the tier before each pass, untimed, so every pass
// starts from the same state: empty Station and Coordinator memory, and
// for serve_cold empty cache directories as well.
func (w *serveWorkload) prepare(tr *tracer) error {
	w.tier.close()
	w.tier = nil
	if !w.hot {
		for _, dir := range w.dirs {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	var opt tierOptions
	if tr != nil {
		opt.wrap = func(role string, h http.Handler) http.Handler { return timedHandler(tr, role, h) }
		opt.exec = func(ctx context.Context, job runner.Job) runner.Result {
			t0 := time.Now()
			res := runner.Execute(ctx, job)
			id, _ := w.traces.Load(job.Key())
			req, _ := id.(string)
			tr.add("service.station.exec", noParent, req, t0, time.Now())
			return res
		}
	}
	var err error
	w.tier, err = startTier(w.dirs, true, opt)
	return err
}

func (w *serveWorkload) pass(tr *tracer, root int) passResult {
	w.passes++
	// The key → trace ID map serves the traced executor span only;
	// untraced passes do not pay for it.
	var transport http.RoundTripper = w.transport
	var traces *sync.Map
	if tr != nil {
		transport = timedTransport{tr, w.transport}
		traces = &w.traces
	}
	dr := drive(w.tier.front, transport, w.requests, w.env.clients, tr, root,
		fmt.Sprintf("p%d", w.passes), traces)
	pr := passResult{ops: dr.latencyMS, jobs: len(dr.latencyMS), attempted: len(w.requests), failed: dr.failed}

	// Served results against the oracle, and the pass digest.
	h := sha256.New()
	for i, got := range dr.served {
		io.WriteString(h, got+"\n")
		if want, ok := w.want[i]; ok && got != "" {
			pr.attempted++
			if got != want {
				pr.failed++
				w.failures = append(w.failures, fmt.Sprintf("request %d served %q, direct execution gives %q", i, got, want))
			}
		}
	}
	pr.digest = fmt.Sprintf("%x", h.Sum(nil))

	// One live /metrics scrape per listener per pass; each must lint.
	for _, addr := range append([]string{w.tier.front}, w.tier.backends...) {
		pr.attempted++
		scrape, lint, err := scrapeMetrics(w.transport, addr)
		if err != nil {
			pr.failed++
			w.failures = append(w.failures, fmt.Sprintf("/metrics %s: %v", addr, err))
			continue
		}
		if tr != nil {
			w.scrapeMS = append(w.scrapeMS, scrape)
			w.lintMS = append(w.lintMS, lint)
		}
	}

	addStats(&w.coordStats, w.tier.coord.Stats())
	for _, st := range w.tier.stations {
		addStats(&w.stationSum, st.Stats())
	}
	return pr
}

// scrapeMetrics fetches and lints one /metrics exposition, returning
// the two durations in milliseconds.
func scrapeMetrics(transport http.RoundTripper, addr string) (scrapeMS, lintMS float64, err error) {
	t0 := time.Now()
	resp, err := (&http.Client{Transport: transport}).Get(addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	t1 := time.Now()
	err = metrics.Lint(data)
	return t1.Sub(t0).Seconds() * 1000, time.Since(t1).Seconds() * 1000, err
}

func (w *serveWorkload) verify() (int, []string) {
	failures := w.failures
	// The workload must stress the path it was chosen for.
	if w.hot {
		if w.stationSum.Executed != 0 {
			failures = append(failures, fmt.Sprintf("serve_hot executed %d simulations during timed passes, want 0", w.stationSum.Executed))
		}
		if w.stationSum.CacheHits == 0 || w.coordStats.Deduped == 0 {
			failures = append(failures, "serve_hot saw no cache hits or no dedup: the read path was not exercised")
		}
	} else {
		if w.stationSum.CacheHits != 0 || w.coordStats.Deduped != 0 {
			failures = append(failures, fmt.Sprintf("serve_cold saw %d cache hits and %d dedups, want 0", w.stationSum.CacheHits, w.coordStats.Deduped))
		}
		if w.stationSum.Executed != w.coordStats.Submitted {
			failures = append(failures, fmt.Sprintf("serve_cold executed %d of %d submissions", w.stationSum.Executed, w.coordStats.Submitted))
		}
	}
	return 2, failures
}

func (w *serveWorkload) layers(spans []span, set func(string, float64)) {
	p50 := func(name string, unit time.Duration) float64 { return median(spanDurations(spans, name, unit)) }
	for _, r := range []string{"submit", "status", "result"} {
		set("service.server.handler_us."+r, p50("service.server.front."+r, time.Microsecond))
		set("service.http."+r+"_ms", p50("service.http."+r, time.Millisecond))
	}
	set("service.station.exec_ms", p50("service.station.exec", time.Millisecond))

	// Join each request's spans by its trace ID.
	type joined struct{ request, frontSubmit, backendSubmit, exec *span }
	byReq := map[string]*joined{}
	get := func(req string) *joined {
		j := byReq[req]
		if j == nil {
			j = &joined{}
			byReq[req] = j
		}
		return j
	}
	requests, polls := 0, 0
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client.request":
			requests++
			get(s.Req).request = s
		case "service.server.front.submit":
			get(s.Req).frontSubmit = s
		case "service.server.backend.submit":
			get(s.Req).backendSubmit = s
		case "service.station.exec":
			get(s.Req).exec = s
		case "service.http.status":
			polls++
		}
	}
	var forward, queueWait, pollSlop []float64
	for _, j := range byReq {
		if j.frontSubmit != nil && j.backendSubmit != nil {
			// What forwarding adds to a submit: the front door's handler
			// time not spent inside the backend's handler.
			forward = append(forward, float64(j.frontSubmit.dur()-j.backendSubmit.dur())/1e6)
		}
		if j.exec == nil || j.request == nil {
			continue
		}
		if j.backendSubmit != nil {
			queueWait = append(queueWait, float64(j.exec.Start-j.backendSubmit.End)/1e6)
		}
		// Time the finished result waited for the client to come and
		// get it: the poll interval's slop plus the fetch.
		pollSlop = append(pollSlop, float64(j.request.End-j.exec.End)/1e6)
	}
	set("service.coord.forward_ms", median(forward))
	set("service.station.queue_wait_ms", median(queueWait))
	set("service.cold.poll_slop_ms", median(pollSlop))
	if requests > 0 {
		set("service.client.polls_per_job", float64(polls)/float64(requests))
	}
	if s := w.coordStats.Submitted; s > 0 {
		set("service.dedup_ratio", float64(w.coordStats.Deduped)/float64(s))
		set("service.hot.first_touch_share", float64(s-w.coordStats.Deduped)/float64(s))
	}
	if s := w.stationSum.Submitted; s > 0 {
		set("service.cache_hit_ratio", float64(w.stationSum.CacheHits)/float64(s))
	}
	set("service.rejected", float64(w.coordStats.Rejected+w.stationSum.Rejected))
	set("metrics.scrape_ms", median(w.scrapeMS))
	set("metrics.lint_ms", median(w.lintMS))
}
