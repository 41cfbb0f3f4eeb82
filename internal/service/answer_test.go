package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// TestTerminalAnswersCarryTheirResult: every terminal answer — a submit
// ticket already done or failed, a held status wait that ends terminal —
// carries the key's result, and it is the result GET /v1/results/{key}
// answers (equal decoded, and equal bytes once compacted), whichever
// path finished the key. No terminal status goes on the wire without its
// result, even when the coordinator loses the backend before it has read
// one, and RunJobs spends one call on a finished key and two on a cold
// one, forwards included.
func TestTerminalAnswersCarryTheirResult(t *testing.T) {
	ctx := context.Background()
	// carried checks an answer's inline result against base's result
	// fetch for the same key.
	carried := func(t *testing.T, base string, key runner.JobKey, status Status, inline json.RawMessage) {
		t.Helper()
		if !status.terminal() || inline == nil {
			t.Fatalf("%s answered %q with result %q; want a terminal status and its result", key, status, inline)
		}
		resp, err := http.Get(base + "/v1/results/" + string(key))
		if err != nil {
			t.Fatal(err)
		}
		fetched, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result: %d %v: %s", resp.StatusCode, err, fetched)
		}
		var a, b bytes.Buffer
		if err := json.Compact(&a, inline); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, fetched); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("inline result differs from the fetched one:\ninline:  %s\nfetched: %s", a.Bytes(), b.Bytes())
		}
		var got, want WireResult
		if json.Unmarshal(inline, &got) != nil || json.Unmarshal(fetched, &want) != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("inline result decodes to %+v, the fetched one to %+v", got, want)
		}
		if (status == StatusFailed) != (got.Error != "") {
			t.Errorf("status %q with result error %q", status, got.Error)
		}
	}
	submit := func(t *testing.T, base string, job runner.Job) JobTicket {
		t.Helper()
		tks, err := NewClient(base).Submit(ctx, []runner.Job{job})
		if err != nil {
			t.Fatal(err)
		}
		return tks[0]
	}
	wait := func(t *testing.T, base string, key runner.JobKey) JobStatus {
		t.Helper()
		js, err := NewClient(base).Wait(ctx, key, maxStatusWait)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	serve := func(t *testing.T, svc JobService, cache *Cache) string {
		ts := httptest.NewServer(NewServer(svc, cache))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	station := func(t *testing.T, dir string, exec runner.ExecFunc) string {
		var cache *Cache
		if dir != "" {
			var err error
			if cache, err = OpenCache(dir, 0); err != nil {
				t.Fatal(err)
			}
		}
		return serve(t, newStation(t, cache, StationConfig{Workers: 1, Exec: exec}), cache)
	}
	ok := func(_ context.Context, job runner.Job) runner.Result { return testResult(job) }

	t.Run("station submit of a cached key", func(t *testing.T) {
		dir := t.TempDir()
		job := testJob(0)
		base := station(t, dir, ok)
		if _, err := NewClient(base).RunJobs(ctx, []runner.Job{job}); err != nil {
			t.Fatal(err)
		}
		tk := submit(t, base, job) // dedup onto the finished state
		carried(t, base, job.Key(), tk.Status, tk.Result)
		hit := station(t, dir, nil) // a cache hit on a new station
		tk = submit(t, hit, job)
		carried(t, hit, job.Key(), tk.Status, tk.Result)
	})

	t.Run("coordinator dedup repeat and disk-cache first touch", func(t *testing.T) {
		dir := t.TempDir()
		job := testJob(1)
		front := serve(t, quietCoordinator(t, station(t, dir, ok)), nil)
		if _, err := NewClient(front).RunJobs(ctx, []runner.Job{job}); err != nil {
			t.Fatal(err)
		}
		tk := submit(t, front, job)
		carried(t, front, job.Key(), tk.Status, tk.Result)

		// A new coordinator over a new station on the same cache: the
		// backend's ticket is a disk hit, and it carries the result.
		front = serve(t, quietCoordinator(t, station(t, dir, nil)), nil)
		tk = submit(t, front, job)
		carried(t, front, job.Key(), tk.Status, tk.Result)
	})

	t.Run("held wait ends done, through a coordinator", func(t *testing.T) {
		st, release := blockedStation(t, 1)
		inner := NewServer(st, nil)
		ts := httptest.NewServer(inner)
		t.Cleanup(ts.Close)
		backend := ts.URL
		front := serve(t, quietCoordinator(t, backend), nil)
		job := testJob(2)
		if tk := submit(t, front, job); tk.Status.terminal() || tk.Result != nil {
			t.Fatalf("blocked job's ticket = %+v", tk)
		}
		answer := make(chan JobStatus, 1)
		go func() {
			js, _ := NewClient(front).Wait(ctx, job.Key(), maxStatusWait)
			answer <- js
		}()
		eventually(t, "a wait held at the backend", func() bool { return inner.metrics.waiting.Value() == 1 })
		release()
		js := <-answer
		carried(t, front, job.Key(), js.Status, js.Result)
		js = wait(t, backend, job.Key())
		carried(t, backend, job.Key(), js.Status, js.Result)
	})

	t.Run("failed, then rerun, through a coordinator", func(t *testing.T) {
		var execs atomic.Int32
		backend := station(t, "", func(_ context.Context, job runner.Job) runner.Result {
			if execs.Add(1) == 1 {
				return runner.Result{Job: job, Err: "no such kernel"}
			}
			return testResult(job)
		})
		front := serve(t, quietCoordinator(t, backend), nil)
		job := testJob(3)
		for _, want := range []Status{StatusFailed, StatusDone} {
			tk := submit(t, front, job)
			js := JobStatus{Status: tk.Status, Result: tk.Result}
			if !tk.Status.terminal() {
				js = wait(t, front, job.Key())
			}
			if js.Status != want {
				t.Fatalf("run %d answered %q, want %q", execs.Load(), js.Status, want)
			}
			carried(t, front, job.Key(), js.Status, js.Result)
			js = wait(t, backend, job.Key())
			carried(t, backend, job.Key(), js.Status, js.Result)
		}
	})

	t.Run("no metrics", func(t *testing.T) {
		base := station(t, "", func(_ context.Context, job runner.Job) runner.Result { return runner.Result{Job: job} })
		job := testJob(4)
		submit(t, base, job)
		js := wait(t, base, job.Key())
		carried(t, base, job.Key(), js.Status, js.Result)
		tk := submit(t, base, job)
		carried(t, base, job.Key(), tk.Status, tk.Result)
	})

	t.Run("backend gone before the result fetch", func(t *testing.T) {
		// The backend answers "running" to the first status call, then
		// its listener closes and it answers nothing more, so the
		// coordinator's next status call fails and the key is re-placed
		// on a backend that is gone.
		var gone atomic.Bool
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if gone.Load() {
				panic(http.ErrAbortHandler)
			}
			if r.Method == http.MethodPost {
				acceptQueued(w, r)
				return
			}
			writeJSON(w, http.StatusOK, JobStatus{Key: runner.JobKey(path.Base(r.URL.Path)), Status: StatusRunning})
			if r.URL.Path != "/v1/healthz" {
				gone.Store(true)
				ts.Listener.Close()
			}
		}))
		t.Cleanup(ts.Close)
		front := serve(t, quietCoordinator(t, ts.URL), nil)
		job := testJob(5)
		submit(t, front, job)
		js := wait(t, front, job.Key())
		if js.Status.terminal() || js.Result != nil {
			t.Fatalf("answer after the backend went = %+v; want a non-terminal status without a result", js)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !js.Status.terminal() && time.Now().Before(deadline) {
			js = wait(t, front, job.Key())
			if js.Status.terminal() != (js.Result != nil) {
				t.Fatalf("answer = %+v: a terminal status goes with its result, and only it", js)
			}
		}
		if js.Status != StatusFailed {
			t.Fatalf("a key whose only backend is gone answered %+v; want it failed", js)
		}
	})

	t.Run("calls per RunJobs", func(t *testing.T) {
		backend := station(t, "", ok)
		front := serve(t, quietCoordinator(t, backend), nil)
		client := NewClient(front)
		run := func(jobs ...runner.Job) (frontCalls, backendCalls map[string]float64) {
			t.Helper()
			f0, b0 := routeCalls(t, front), routeCalls(t, backend)
			set, err := client.RunJobs(ctx, jobs)
			if err == nil {
				err = set.Err()
			}
			if err != nil {
				t.Fatal(err)
			}
			return subCalls(routeCalls(t, front), f0), subCalls(routeCalls(t, backend), b0)
		}
		cold := testJob(6)
		f, b := run(cold)
		want := map[string]float64{"/v1/jobs": 1, waitRoute: 1}
		if !reflect.DeepEqual(f, want) || !reflect.DeepEqual(b, want) {
			t.Errorf("cold key: front calls %v, backend calls %v; want %v at each (submit, held wait)", f, b, want)
		}
		f, b = run(cold)
		if want := map[string]float64{"/v1/jobs": 1}; !reflect.DeepEqual(f, want) || len(b) != 0 {
			t.Errorf("finished key: front calls %v, backend calls %v; want %v and none", f, b, want)
		}

		suite := make([]runner.Job, 26) // the size of `gpulat submit -suite`
		for i := range suite {
			suite[i] = testJob(100 + i)
		}
		run(suite...)
		f, b = run(suite...)
		if want := map[string]float64{"/v1/jobs": 1}; !reflect.DeepEqual(f, want) || len(b) != 0 {
			t.Errorf("warm suite re-run: front calls %v, backend calls %v; want %v and none", f, b, want)
		}
	})
}

// routeCalls is base's gpulat_http_requests_total by route, its own
// scrapes left out.
func routeCalls(t *testing.T, base string) map[string]float64 {
	calls := map[string]float64{}
	for _, s := range scrapeMetrics(t, base).Samples {
		if s.Name == "gpulat_http_requests_total" && s.Labels["route"] != "/metrics" {
			calls[s.Labels["route"]] += s.Value
		}
	}
	return calls
}

// subCalls is after − before, routes with no new calls left out.
func subCalls(after, before map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for route, n := range after {
		if n != before[route] {
			d[route] = n - before[route]
		}
	}
	return d
}
