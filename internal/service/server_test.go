package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpulat/internal/runner"
	"gpulat/internal/stats"
)

func newTestServer(t *testing.T, cfg StationConfig) (*httptest.Server, *Cache, *Station) {
	t.Helper()
	cache, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	station := newStation(t, cache, cfg)
	ts := httptest.NewServer(NewServer(station, cache))
	t.Cleanup(ts.Close)
	return ts, cache, station
}

func TestServerEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, StationConfig{
		Workers: 2,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	client := NewClient(ts.URL)
	ctx := context.Background()

	h, err := client.Healthz(ctx)
	if err != nil || !h.OK || h.Version == "" || h.Scheme == "" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	info, err := client.CatalogInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Architectures) != 5 || len(info.Workloads) < 9 || len(info.Placements) != 2 {
		t.Fatalf("catalog = %+v", info)
	}

	jobs := []runner.Job{testJob(0), testJob(1), testJob(0)} // duplicate on purpose
	set, err := client.RunJobs(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 3 {
		t.Fatalf("results = %d", len(set.Results))
	}
	if set.Results[0].Index != 0 || set.Results[2].Index != 2 {
		t.Fatalf("indices not client-local: %+v", set.Results)
	}
	for i, r := range set.Results {
		if r.Failed() || len(r.Metrics) == 0 {
			t.Fatalf("result %d: %+v", i, r)
		}
	}

	stats, err := client.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Station.Deduped != 1 {
		t.Fatalf("duplicate submission not deduped: %+v", stats.Station)
	}
	if stats.Station.Executed != 2 {
		t.Fatalf("executed = %d, want 2: %+v", stats.Station.Executed, stats.Station)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("bad body → %d", code)
	}
	if code := post(`{"jobs": []}`); code != http.StatusBadRequest {
		t.Errorf("empty jobs → %d", code)
	}
	if code := post(`{"surprise": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field → %d", code)
	}
	// A bucket count is how a report renders, not part of a job.
	if code := post(`{"jobs": [{"kind": "dynamic", "arch": "GF106", "options": {"buckets": 48}}]}`); code != http.StatusBadRequest {
		t.Errorf("job with a buckets option → %d", code)
	}
	// A grid bomb must be rejected from its declared size, before
	// expansion can allocate anything.
	if code := post(`{"grid": {"Kind": "chase", "Repeats": 2000000000}}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("grid bomb → %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	for path, want := range map[string]int{
		"/v1/jobs/zzzz":                            http.StatusBadRequest, // malformed key
		"/v1/results/zzzz":                         http.StatusBadRequest,
		"/v1/jobs/" + string(testJob(55).Key()):    http.StatusNotFound,
		"/v1/results/" + string(testJob(55).Key()): http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s → %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestServerGridSubmission(t *testing.T) {
	ts, _, _ := newTestServer(t, StationConfig{
		Workers: 2,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	grid := runner.Grid{
		Kind:     runner.KindDynamic,
		Archs:    []string{"GF106"},
		Kernels:  []string{"vecadd", "copy"},
		Variants: []runner.Options{{TestScale: true}},
	}
	body, _ := json.Marshal(SubmitRequest{Grid: &grid})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid submit → %d", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Tickets) != 2 {
		t.Fatalf("grid expanded to %d tickets", len(sr.Tickets))
	}
	// Ticket keys must equal client-side expansion keys: the grid
	// expands identically on both ends.
	want := grid.Jobs()
	for i, tk := range sr.Tickets {
		if tk.Key != want[i].Key() {
			t.Errorf("ticket %d key %s != local expansion %s", i, tk.Key, want[i].Key())
		}
	}
}

// TestResultBytesAreTheWireEncoding: GET /v1/results/{key} answers
// exactly stats.ComparableJSON(WireResult{…}) of the result, whichever
// path finished the key's state: a job that ran, a cache hit on a new
// station over the same directory (under the stored job and under
// another label), a repeated fetch, a fetch through a coordinator, a
// failure and the rerun that replaces it, and a result with no metrics
// (whose cache entry's bytes are not its wire bytes).
func TestResultBytesAreTheWireEncoding(t *testing.T) {
	ctx := context.Background()
	// check fetches want's key from base; it reports with Errorf, so
	// several goroutines may run it at once.
	check := func(t *testing.T, base string, want runner.Result) {
		t.Helper()
		key := want.Job.Key()
		resp, err := http.Get(base + "/v1/results/" + string(key))
		if err != nil {
			t.Error(err)
			return
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET result: %d %v: %s", resp.StatusCode, err, got)
			return
		}
		wire, err := stats.ComparableJSON(WireResult{Key: key, Job: want.Job, Metrics: want.Metrics, Error: want.Err})
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, wire) {
			t.Errorf("result bytes are not the wire encoding:\ngot:\n%s\nwant:\n%s", got, wire)
		}
	}
	// serve starts a station over dir with exec behind an HTTP server.
	serve := func(t *testing.T, dir string, exec runner.ExecFunc) (*Station, string) {
		cache, err := OpenCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := newStation(t, cache, StationConfig{Workers: 1, Exec: exec})
		ts := httptest.NewServer(NewServer(st, cache))
		t.Cleanup(ts.Close)
		return st, ts.URL
	}
	do := func(t *testing.T, st *Station, job runner.Job) runner.Result {
		t.Helper()
		res, err := st.Do(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noExec := func(_ context.Context, job runner.Job) runner.Result {
		t.Errorf("%s executed; want a cache hit", job.Name())
		return runner.Result{Job: job, Err: "executed"}
	}

	t.Run("ran, repeated, cache hit, coordinator", func(t *testing.T) {
		dir := t.TempDir()
		job := testJob(0)
		st, base := serve(t, dir, func(_ context.Context, job runner.Job) runner.Result { return testResult(job) })
		do(t, st, job)
		check(t, base, testResult(job))
		do(t, st, job) // deduplicated onto the finished state
		check(t, base, testResult(job))

		hit, hitBase := serve(t, dir, noExec)
		do(t, hit, job)
		check(t, hitBase, testResult(job))
		relabeled := job
		relabeled.Options.Label = "another"
		other, otherBase := serve(t, dir, noExec)
		do(t, other, relabeled)
		check(t, otherBase, testResult(relabeled))

		coord := quietCoordinator(t, base)
		front := httptest.NewServer(NewServer(coord, nil))
		t.Cleanup(front.Close)
		if _, err := NewClient(front.URL).RunJobs(ctx, []runner.Job{job}); err != nil {
			t.Fatal(err)
		}
		check(t, front.URL, testResult(job))
		check(t, front.URL, testResult(job)) // memoized
	})

	t.Run("failed, then rerun", func(t *testing.T) {
		var execs atomic.Int32
		st, base := serve(t, t.TempDir(), func(_ context.Context, job runner.Job) runner.Result {
			if execs.Add(1) == 1 {
				return runner.Result{Job: job, Err: "no such kernel"}
			}
			return testResult(job)
		})
		job := testJob(1)
		check(t, base, do(t, st, job))
		if res := do(t, st, job); res.Failed() {
			t.Fatalf("rerun failed: %+v", res)
		}
		check(t, base, testResult(job))
	})

	t.Run("no metrics", func(t *testing.T) {
		dir := t.TempDir()
		job := testJob(2)
		st, base := serve(t, dir, func(_ context.Context, job runner.Job) runner.Result { return runner.Result{Job: job} })
		do(t, st, job)
		// No bytes are kept yet: the first fetches race to encode them.
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t, base, runner.Result{Job: job})
			}()
		}
		wg.Wait()
		hit, hitBase := serve(t, dir, noExec)
		do(t, hit, job)
		check(t, hitBase, runner.Result{Job: job})
	})
}
