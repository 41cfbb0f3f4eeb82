package service

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// prompt bounds "returned on the event, not on the wait's own timeout":
// generous against scheduler noise, still well under maxStatusWait.
const prompt = time.Second

// blockedStation runs every job's executor into a wedge the returned
// release opens (also registered as a cleanup, before Close's).
func blockedStation(t *testing.T, workers int) (*Station, func()) {
	t.Helper()
	wedge := make(chan struct{})
	st := newStation(t, nil, StationConfig{
		Workers: workers,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			<-wedge
			if job.Seed == 99 {
				return runner.Result{Job: job, Err: "boom"}
			}
			return testResult(job)
		},
	})
	return st, releaser(t, wedge)
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAnswer is what one Station.Wait returned, and how long it took.
type waitAnswer struct {
	status  Status
	ok      bool
	elapsed time.Duration
}

// waitAsync runs one Station.Wait on its own goroutine.
func waitAsync(st *Station, ctx context.Context, key runner.JobKey, d time.Duration) <-chan waitAnswer {
	ch := make(chan waitAnswer, 1)
	go func() {
		t0 := time.Now()
		status, ok := st.Wait(ctx, key, d)
		ch <- waitAnswer{status, ok, time.Since(t0)}
	}()
	return ch
}

func recvWait(t *testing.T, ch <-chan waitAnswer) waitAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("Wait never returned")
		return waitAnswer{}
	}
}

// TestStationWait pins every way a wait ends. The completion case is
// also the proof that Wait does not block under s.mu: the worker needs
// that lock to mark the job done, so a waiter holding it would never
// see the completion it is waiting for.
func TestStationWait(t *testing.T) {
	ctx := context.Background()

	t.Run("completion", func(t *testing.T) {
		st, release := blockedStation(t, 1)
		key, _, _ := st.Submit(ctx, testJob(0))
		ch := waitAsync(st, ctx, key, time.Minute)
		// Other users of the station are not shut out meanwhile.
		if _, status, err := st.Submit(ctx, testJob(0)); err != nil || status.terminal() {
			t.Fatalf("dedup submit during a wait = %q, %v", status, err)
		}
		release()
		if a := recvWait(t, ch); a.status != StatusDone || !a.ok || a.elapsed > prompt {
			t.Fatalf("wait across completion = %+v", a)
		}
	})
	t.Run("failure is terminal too", func(t *testing.T) {
		st, release := blockedStation(t, 1)
		job := testJob(0)
		job.Seed = 99
		key, _, _ := st.Submit(ctx, job)
		ch := waitAsync(st, ctx, key, time.Minute)
		release()
		if a := recvWait(t, ch); a.status != StatusFailed || !a.ok {
			t.Fatalf("wait across failure = %+v", a)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		st, _ := blockedStation(t, 1)
		key, _, _ := st.Submit(ctx, testJob(0))
		a := recvWait(t, waitAsync(st, ctx, key, 30*time.Millisecond))
		if a.status.terminal() || !a.ok || a.elapsed < 30*time.Millisecond {
			t.Fatalf("timed-out wait = %+v, want the live status after >= 30ms", a)
		}
	})
	t.Run("context", func(t *testing.T) {
		st, _ := blockedStation(t, 1)
		key, _, _ := st.Submit(ctx, testJob(0))
		cctx, cancel := context.WithCancel(ctx)
		ch := waitAsync(st, cctx, key, time.Minute)
		cancel()
		if a := recvWait(t, ch); a.status.terminal() || !a.ok || a.elapsed > prompt {
			t.Fatalf("canceled wait = %+v", a)
		}
	})
	t.Run("close", func(t *testing.T) {
		st, release := blockedStation(t, 1)
		key, _, _ := st.Submit(ctx, testJob(0))
		ch := waitAsync(st, ctx, key, time.Minute)
		closed := make(chan struct{})
		go func() { st.Close(); close(closed) }()
		// Close is still draining the wedged worker when the wait ends.
		if a := recvWait(t, ch); !a.ok || a.elapsed > prompt {
			t.Fatalf("wait across Close = %+v", a)
		}
		release()
		<-closed
	})
	t.Run("unknown key", func(t *testing.T) {
		st, _ := blockedStation(t, 1)
		a := recvWait(t, waitAsync(st, ctx, testJob(7).Key(), time.Minute))
		if a.ok || a.elapsed > prompt {
			t.Fatalf("wait on an unknown key = %+v, want false at once", a)
		}
	})
}

// statusAnswer is one raw status response and how long it took; code 0
// carries a transport error in body.
type statusAnswer struct {
	code int
	body string
	took time.Duration
}

func fetchStatus(base string, key runner.JobKey, query string) statusAnswer {
	t0 := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + string(key) + query)
	if err != nil {
		return statusAnswer{0, err.Error(), time.Since(t0)}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return statusAnswer{0, err.Error(), time.Since(t0)}
	}
	return statusAnswer{resp.StatusCode, string(body), time.Since(t0)}
}

// waitRecorder is a Station whose Wait records the hold the server asks
// for and, until hold is set, answers without holding.
type waitRecorder struct {
	*Station
	hold  atomic.Bool
	asked atomic.Int64 // the last d, in nanoseconds
}

func (w *waitRecorder) Wait(ctx context.Context, key runner.JobKey, d time.Duration) (Status, bool) {
	w.asked.Store(int64(d))
	if !w.hold.Load() {
		d = 0
	}
	return w.Station.Wait(ctx, key, d)
}

// TestServerStatusWait covers the ?wait= surface of GET /v1/jobs/{key}
// and both directions of wire compatibility on the server side: no
// wait parameter, no behaviour change.
func TestServerStatusWait(t *testing.T) {
	st, release := blockedStation(t, 2)
	rec := &waitRecorder{Station: st}
	ts := httptest.NewServer(NewServer(rec, nil))
	t.Cleanup(ts.Close)
	ctx := context.Background()
	key, _, _ := st.Submit(ctx, testJob(0))
	failing := testJob(0)
	failing.Seed = 99
	failKey, _, _ := st.Submit(ctx, failing)
	eventually(t, "both jobs running", func() bool { return st.Stats().Running == 2 })

	for _, q := range []string{"?wait=", "?wait=soon", "?wait=5", "?wait=-1s"} {
		if a := fetchStatus(ts.URL, key, q); a.code != http.StatusBadRequest {
			t.Errorf("GET %s = %+v, want 400", q, a)
		}
	}
	if a := fetchStatus(ts.URL, testJob(7).Key(), "?wait=2s"); a.code != http.StatusNotFound || a.took > prompt {
		t.Errorf("waited unknown key = %+v, want 404 at once", a)
	}
	// Without wait: the immediate answer, byte for byte what it always was.
	want := "{\n  \"key\": \"" + string(key) + "\",\n  \"status\": \"running\"\n}\n"
	if a := fetchStatus(ts.URL, key, ""); a.code != http.StatusOK || a.body != want || a.took > prompt {
		t.Errorf("unwaited status = %+v, want %q at once", a, want)
	}
	// Above the cap: the service is asked to hold for the cap, not more
	// (how a held wait ends is TestStationWait's).
	if a := fetchStatus(ts.URL, key, "?wait=1h"); a.code != http.StatusOK || a.body != want || a.took > prompt {
		t.Errorf("over-cap wait = %+v, want %q", a, want)
	}
	if asked := time.Duration(rec.asked.Load()); asked != maxStatusWait {
		t.Errorf("?wait=1h asked the service to hold %s, want the %s cap", asked, maxStatusWait)
	}
	rec.hold.Store(true)

	answers := make(chan statusAnswer, 2)
	for _, k := range []runner.JobKey{key, failKey} {
		go func() { answers <- fetchStatus(ts.URL, k, "?wait=2s") }()
	}
	srv := ts.Config.Handler.(*Server)
	eventually(t, "both waits held", func() bool { return srv.metrics.waiting.Value() == 2 })
	release()
	sawDone, sawFailed := false, false
	for range 2 {
		a := <-answers
		var js JobStatus
		_ = json.Unmarshal([]byte(a.body), &js)
		switch {
		case a.code == http.StatusOK && js.Status == StatusDone:
			sawDone = true
		case a.code == http.StatusOK && js.Status == StatusFailed && js.Error == "boom":
			sawFailed = true
		default:
			t.Errorf("waited status = HTTP %d %s", a.code, a.body)
		}
	}
	if !sawDone || !sawFailed {
		t.Errorf("done seen %v, failed-with-error seen %v", sawDone, sawFailed)
	}

	// /metrics: waited requests have their own route label, so the
	// immediate-answer histogram holds no multi-second samples.
	s := scrapeMetrics(t, ts.URL)
	if v, _ := s.Value("gpulat_http_request_duration_seconds_count", map[string]string{"route": waitRoute}); v != 8 {
		t.Errorf("waited requests observed under %q = %v, want 8", waitRoute, v)
	}
	if v, _ := s.Value("gpulat_http_request_duration_seconds_count", map[string]string{"route": statusRoute}); v != 1 {
		t.Errorf("unwaited requests observed under %q = %v, want 1", statusRoute, v)
	}
	if v, ok := s.Value("gpulat_http_waiting", nil); !ok || v != 0 {
		t.Errorf("gpulat_http_waiting = %v, %v; want 0 once every wait has answered", v, ok)
	}
}

// TestWaitsEndWithShutdown: a draining http.Server that registered
// ReleaseWaits answers its held waits at once — 200, current status —
// instead of sitting out the cap.
func TestWaitsEndWithShutdown(t *testing.T) {
	st, _ := blockedStation(t, 1)
	key, _, _ := st.Submit(context.Background(), testJob(0))
	handler := NewServer(st, nil)
	srv := &http.Server{Handler: handler}
	srv.RegisterOnShutdown(handler.ReleaseWaits)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(served) }()

	got := make(chan statusAnswer, 1)
	go func() { got <- fetchStatus("http://"+ln.Addr().String(), key, "?wait=2s") }()
	eventually(t, "the wait to be held", func() bool { return handler.metrics.waiting.Value() == 1 })
	t0 := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-served
	if took := time.Since(t0); took > prompt {
		t.Errorf("Shutdown sat %s behind a held wait", took)
	}
	if a := <-got; a.code != http.StatusOK || strings.Contains(a.body, `"done"`) || !strings.Contains(a.body, `"status"`) {
		t.Errorf("drained wait answered HTTP %d %s, want 200 with the live status", a.code, a.body)
	}
}

// TestAbandonedWaitsFreeTheirGoroutines: a client that hangs up
// mid-wait frees its handler at once, via the request context.
func TestAbandonedWaitsFreeTheirGoroutines(t *testing.T) {
	st, _ := blockedStation(t, 1)
	key, _, _ := st.Submit(context.Background(), testJob(0))
	handler := NewServer(st, nil)
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}
	baseline := runtime.NumGoroutine()

	const waits = 100
	ctx, hangUp := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range waits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+string(key)+"?wait=2s", nil)
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
	}
	eventually(t, "every wait to be held", func() bool { return handler.metrics.waiting.Value() == waits })
	t0 := time.Now()
	hangUp()
	wg.Wait()
	transport.CloseIdleConnections()
	eventually(t, "the handlers to return", func() bool { return handler.metrics.waiting.Value() == 0 })
	if took := time.Since(t0); took > prompt {
		t.Errorf("abandoned waits held their handlers %s", took)
	}
	eventually(t, "the goroutine count to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestRunJobsAgainstServerIgnoringWait: the stub answers every status
// call at once, wait or no wait, and RunJobs must fall back to its Poll
// floor instead of spinning.
func TestRunJobsAgainstServerIgnoringWait(t *testing.T) {
	const poll = 20 * time.Millisecond
	const runFor = 150 * time.Millisecond
	f := &flakyQueueServer{accepted: map[runner.JobKey]runner.Job{}}
	inner := f.handler()
	var statusCalls atomic.Int64
	var firstCall atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok {
			statusCalls.Add(1)
			firstCall.CompareAndSwap(0, time.Now().UnixNano())
			// "Running" until runFor after the first status call.
			if time.Since(time.Unix(0, firstCall.Load())) < runFor {
				writeJSON(w, http.StatusOK, JobStatus{Key: runner.JobKey(key), Status: StatusRunning})
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.Poll = poll
	jobs := []runner.Job{testJob(0), testJob(1), testJob(2)}
	t0 := time.Now()
	set, err := client.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Err(); err != nil || len(set.Results) != len(jobs) {
		t.Fatalf("grid against a wait-ignoring server: %v, %d results", err, len(set.Results))
	}
	// At most one call per Poll interval while the first job "runs" (plus
	// the immediate first one), then one for each remaining ticket.
	elapsed := time.Since(t0)
	if n, most := statusCalls.Load(), int64(elapsed/poll)+1+2; n > most || n < 4 {
		t.Fatalf("%d status calls in %s at Poll=%s, want between 4 and %d", n, elapsed, poll, most)
	}
}

// TestRunJobsMakesOneStatusCallPerLiveTicket: against a server that
// honours wait, a ticket that came back unfinished costs exactly one
// status call, it is a waited one, and the first of them goes out no
// sooner than headStart after the call began.
func TestRunJobsMakesOneStatusCallPerLiveTicket(t *testing.T) {
	st, release := blockedStation(t, 4)
	inner := NewServer(st, nil)
	var waited, unwaited, firstAsk atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			firstAsk.CompareAndSwap(0, time.Now().UnixNano())
			if r.URL.Query().Has("wait") {
				waited.Add(1)
			} else {
				unwaited.Add(1)
			}
			release() // the jobs finish only once the client is waiting
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	jobs := []runner.Job{testJob(0), testJob(1), testJob(2), testJob(3)}
	began := time.Now()
	set, err := NewClient(ts.URL).RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	if waited.Load() != int64(len(jobs)) || unwaited.Load() != 0 {
		t.Fatalf("status calls: %d waited, %d unwaited; want %d and 0", waited.Load(), unwaited.Load(), len(jobs))
	}
	if after := time.Unix(0, firstAsk.Load()).Sub(began); after < headStart {
		t.Fatalf("first status call %s after RunJobs began, want >= %s", after, headStart)
	}
}

// TestCoordinatorWaitEndsWithClose: a wait the coordinator holds open on
// a backend is hung up by Close, answers the last status known, and does
// not count against the (perfectly healthy) backend.
func TestCoordinatorWaitEndsWithClose(t *testing.T) {
	wedge := make(chan struct{})
	b := newTestBackend(t, wedge)
	releaser(t, wedge)
	coord := quickCoordinator(t, []string{b.ts.URL})
	key := testJob(0).Key()
	if _, err := coord.SubmitMany(context.Background(), []runner.Job{testJob(0)}); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status Status
		ok     bool
	}
	got := make(chan answer, 1)
	go func() {
		status, ok := coord.Wait(context.Background(), key, maxStatusWait)
		got <- answer{status, ok}
	}()
	held := b.ts.Config.Handler.(*Server).metrics.waiting
	eventually(t, "the forwarded wait to be held", func() bool { return held.Value() == 1 })
	t0 := time.Now()
	coord.Close()
	select {
	case a := <-got:
		if !a.ok || time.Since(t0) > prompt {
			t.Fatalf("wait across Close = %+v after %s", a, time.Since(t0))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the wait hanging")
	}
	if st := coord.Backends()[0]; st.Circuit != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("hanging up on a healthy backend penalised it: %+v", st)
	}
	eventually(t, "the backend's handler to return", func() bool { return held.Value() == 0 })
}
