package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// testBackend is one live single-node service (station + HTTP server)
// a coordinator can route to.
type testBackend struct {
	ts      *httptest.Server
	station *Station
	execs   *countingExec
}

type countingExec struct {
	mu    sync.Mutex
	n     int
	block chan struct{} // non-nil: executions wait on it
}

func (c *countingExec) exec(ctx context.Context, job runner.Job) runner.Result {
	c.mu.Lock()
	c.n++
	block := c.block
	c.mu.Unlock()
	if block != nil {
		<-block
	}
	return testResult(job)
}

func (c *countingExec) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func newTestBackend(t *testing.T, block chan struct{}) *testBackend {
	t.Helper()
	ce := &countingExec{block: block}
	station := newStation(t, nil, StationConfig{Workers: 2, Exec: ce.exec})
	ts := httptest.NewServer(NewServer(station, nil))
	t.Cleanup(ts.Close)
	return &testBackend{ts: ts, station: station, execs: ce}
}

func quickCoordinator(t *testing.T, addrs []string) *Coordinator {
	t.Helper()
	return newCoordinator(t, CoordinatorConfig{
		Backends:      addrs,
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
		CallTimeout:   5 * time.Second,
	})
}

// quietCoordinator keeps the prober out of the way with an hour-long
// interval and every circuit closed with a threshold no test reaches:
// for tests that count forwards, or that must not see a live backend's
// circuit opened by a probe timing out on a loaded host.
func quietCoordinator(t *testing.T, addrs ...string) *Coordinator {
	t.Helper()
	return newCoordinator(t, CoordinatorConfig{Backends: addrs, ProbeInterval: time.Hour, FailThreshold: 100})
}

// TestCoordinatorEndToEnd: a client running a job list (with a
// duplicate) through coordinator HTTP gets the exact ResultSet a direct
// single-process run produces, with the work spread over the pool and
// dedup intact.
func TestCoordinatorEndToEnd(t *testing.T) {
	b1 := newTestBackend(t, nil)
	b2 := newTestBackend(t, nil)
	coord := quietCoordinator(t, b1.ts.URL, b2.ts.URL)
	front := httptest.NewServer(NewServer(coord, nil))
	defer front.Close()

	jobs := make([]runner.Job, 0, 13)
	for i := 0; i < 12; i++ {
		jobs = append(jobs, testJob(i))
	}
	jobs = append(jobs, testJob(0)) // duplicate on purpose

	client := NewClient(front.URL)
	set, err := client.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != len(jobs) {
		t.Fatalf("results = %d", len(set.Results))
	}
	for i, r := range set.Results {
		want := testResult(jobs[i])
		if r.Failed() || len(r.Metrics) != len(want.Metrics) || r.Metrics[0] != want.Metrics[0] {
			t.Fatalf("result %d drifted: %+v", i, r)
		}
		if r.Index != i {
			t.Fatalf("result %d index %d not client-local", i, r.Index)
		}
	}
	if n := b1.execs.count() + b2.execs.count(); n != 12 {
		t.Fatalf("pool executed %d jobs, want 12 (dedup lost?)", n)
	}
	if b1.execs.count() == 0 || b2.execs.count() == 0 {
		t.Fatalf("no spread: b1=%d b2=%d", b1.execs.count(), b2.execs.count())
	}

	stats := coord.Stats()
	if stats.Deduped != 1 || stats.Done != 12 || stats.Rerouted != 0 {
		t.Fatalf("coordinator stats: %+v", stats)
	}

	// The introspection surfaces: /v1/backendsz on the coordinator,
	// 404 on a plain station.
	bz, err := client.Backendsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz.Backends) != 2 {
		t.Fatalf("backendsz = %+v", bz)
	}
	for _, b := range bz.Backends {
		if !b.Healthy || b.Circuit != "closed" {
			t.Fatalf("backend unexpectedly unhealthy: %+v", b)
		}
	}
	if _, err := NewClient(b1.ts.URL).Backendsz(context.Background()); err == nil {
		t.Fatal("station answered backendsz")
	}
}

// TestCoordinatorFailsOverWhenBackendDies is the kill-one-backend-mid-
// grid contract: jobs stuck on a dead backend are re-routed to the
// survivor and the grid completes with identical results.
func TestCoordinatorFailsOverWhenBackendDies(t *testing.T) {
	release := make(chan struct{})
	b1 := newTestBackend(t, nil)
	b2 := newTestBackend(t, release) // b2's executions block until released
	coord := quickCoordinator(t, []string{b1.ts.URL, b2.ts.URL})

	jobs := testJobs(16)
	tickets, err := coord.SubmitMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != len(jobs) {
		t.Fatalf("tickets = %d", len(tickets))
	}

	// Kill b2 with its jobs wedged; never release them there.
	b2.ts.Close()
	close(release)

	// Every key must reach done on the survivor within the failover
	// budget (probe interval × threshold + resubmit + run).
	deadline := time.Now().Add(15 * time.Second)
	for _, tk := range tickets {
		for {
			res, ok := coord.Result(context.Background(), tk.Key)
			if ok {
				if res.Failed() {
					t.Fatalf("key %s failed: %s", tk.Key, res.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				st, _ := coord.Wait(context.Background(), tk.Key, 0)
				t.Fatalf("key %s stuck in %q after backend death: %+v", tk.Key, st, coord.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if coord.Stats().Rerouted == 0 {
		t.Fatalf("no reroutes recorded: %+v", coord.Stats())
	}
	// The dead backend's circuit must be open in the report.
	openCircuits := 0
	for _, b := range coord.Backends() {
		if b.Circuit == "open" {
			openCircuits++
		}
	}
	if openCircuits != 1 {
		t.Fatalf("open circuits = %d, want 1: %+v", openCircuits, coord.Backends())
	}
}

// TestCoordinatorResubmitsWhenBackendLosesState: a backend that
// restarted (alive but empty) answers 404 for a key it was assigned;
// the coordinator must re-place the job instead of polling 404 forever.
func TestCoordinatorResubmitsWhenBackendLosesState(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	known := map[runner.JobKey]runner.Job{}
	amnesiac := func() http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			var req SubmitRequest
			_ = jsonDecode(r, &req)
			mu.Lock()
			posts++
			// The first submission is forgotten (simulated restart);
			// later ones stick.
			remember := posts > 1
			tks := make([]JobTicket, 0, len(req.Jobs))
			for _, j := range req.Jobs {
				if remember {
					known[j.Key()] = j
				}
				tks = append(tks, JobTicket{Key: j.Key(), Status: StatusQueued})
			}
			mu.Unlock()
			writeJSON(w, http.StatusOK, SubmitResponse{Tickets: tks})
		})
		mux.HandleFunc("GET /v1/jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
			key := runner.JobKey(r.PathValue("key"))
			mu.Lock()
			job, ok := known[key]
			mu.Unlock()
			if !ok {
				writeError(w, http.StatusNotFound, "unknown job %s", key)
				return
			}
			writeJSON(w, http.StatusOK, JobStatus{Key: key, Status: StatusDone, Result: wireResult(job)})
		})
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, Health{OK: true, Version: "test", Scheme: "test"})
		})
		return mux
	}
	ts := httptest.NewServer(amnesiac())
	defer ts.Close()
	coord := quickCoordinator(t, []string{ts.URL})

	job := testJob(3)
	if _, err := coord.SubmitMany(context.Background(), []runner.Job{job}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if res, ok := coord.Result(context.Background(), job.Key()); ok {
			if res.Failed() {
				t.Fatalf("job failed: %s", res.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("404-answering backend never triggered a resubmit: %+v", coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts < 2 {
		t.Fatalf("posts = %d, want a resubmission", posts)
	}
}

// TestCoordinatorFailsResultlessTerminalAnswer: when a backend answers
// done without the result, the key fails at once, naming the backend,
// and never reads done with no final result; a client through the
// coordinator gets that failure, and nothing asks the backend for
// /v1/results.
func TestCoordinatorFailsResultlessTerminalAnswer(t *testing.T) {
	ts, calls := resultlessServer(t)
	coord := quietCoordinator(t, ts.URL)
	front := httptest.NewServer(NewServer(coord, nil))
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job := testJob(0)
	set, err := NewClient(front.URL).RunJobs(ctx, []runner.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	want := "backend " + ts.URL + " answered job " + string(job.Key()) + " done without a readable result"
	if got := set.Results[0].Err; !strings.Contains(got, want) {
		t.Fatalf("result error %q, want it to say %q", got, want)
	}
	st := coord.lookup(job.Key())
	coord.mu.Lock()
	status := st.status
	coord.mu.Unlock()
	if status != StatusFailed || !st.final() {
		t.Fatalf("key reads %s, final %v; want failed and final", status, st.final())
	}
	if got := calls(); got["GET /v1/results"] != 0 || got["GET /v1/jobs"] != 1 {
		t.Fatalf("backend calls %v, want one status call and no result fetch", got)
	}
}

// TestCoordinatorResultReadsThroughStatusProxy: GET /v1/results/{key} on
// a coordinator, for a key its backend finished but the coordinator has
// not heard of yet, answers 200 with the backend's bytes. It learns them
// from one status call proxied with no wait, under the reader's trace
// ID, and never from the backend's /v1/results.
func TestCoordinatorResultReadsThroughStatusProxy(t *testing.T) {
	wedge := make(chan struct{})
	release := releaser(t, wedge)
	ce := &countingExec{block: wedge}
	station := newStation(t, nil, StationConfig{Workers: 1, Exec: ce.exec})
	inner := NewServer(station, nil)
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.URL.RequestURI()+" "+r.Header.Get(TraceHeader))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	coord := quietCoordinator(t, ts.URL)
	front := httptest.NewServer(NewServer(coord, nil))
	defer front.Close()

	job := testJob(0)
	key := job.Key()
	if tks, err := coord.SubmitMany(context.Background(), []runner.Job{job}); err != nil || tks[0].Status.terminal() {
		t.Fatalf("submit = %+v, %v; want a live ticket", tks, err)
	}
	release()
	if s, _ := station.Wait(context.Background(), key, 10*time.Second); s != StatusDone {
		t.Fatalf("backend reads %s, want done", s)
	}
	if st := coord.lookup(key); st.final() {
		t.Fatal("the coordinator heard of the result before anyone asked")
	}
	mu.Lock()
	seen = nil
	mu.Unlock()

	read := func(base, trace string) []byte {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/results/"+string(key), nil)
		req.Header.Set(TraceHeader, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/v1/results = %d: %s", base, resp.StatusCode, body)
		}
		return body
	}
	got := read(front.URL, "result-read")
	mu.Lock()
	proxied := slices.Clone(seen)
	mu.Unlock()
	if want := []string{"GET /v1/jobs/" + string(key) + " result-read"}; !slices.Equal(proxied, want) {
		t.Fatalf("the coordinator's result read sent %q to the backend, want %q", proxied, want)
	}
	if want := read(ts.URL, "direct"); !bytes.Equal(got, want) {
		t.Fatalf("coordinator answered %s, backend %s", got, want)
	}
}

// TestCoordinatorQueueBound: the coordinator exerts the same 503-shaped
// admission backpressure a station does, instead of growing its live-key
// map without limit.
func TestCoordinatorQueueBound(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	b1 := newTestBackend(t, release)
	coord := newCoordinator(t, CoordinatorConfig{
		Backends:      []string{b1.ts.URL},
		ProbeInterval: 20 * time.Millisecond,
		QueueBound:    2,
	})

	tickets, err := coord.SubmitMany(context.Background(), []runner.Job{testJob(0), testJob(1), testJob(2)})
	if err != ErrQueueFull {
		t.Fatalf("over-bound SubmitMany = %v, want ErrQueueFull", err)
	}
	if len(tickets) != 2 {
		t.Fatalf("accepted %d tickets before refusing, want 2", len(tickets))
	}
	if errHTTPStatus(ErrQueueFull) != http.StatusServiceUnavailable {
		t.Fatal("ErrQueueFull must map to 503")
	}
}

// TestCoordinatorTreatsBackendQueueFullAsBackpressure: a backend that
// answers 503 (its queue is full) is ALIVE — its circuit must not open
// and its jobs must not bounce to other backends; once capacity frees,
// the prober's sweep re-forwards and the jobs complete where they were
// placed.
func TestCoordinatorTreatsBackendQueueFullAsBackpressure(t *testing.T) {
	release := make(chan struct{})
	ce := &countingExec{block: release}
	station := newStation(t, nil, StationConfig{Workers: 1, QueueBound: 1, Exec: ce.exec})
	ts := httptest.NewServer(NewServer(station, nil))
	t.Cleanup(ts.Close)

	coord := quickCoordinator(t, []string{ts.URL})
	// 4 jobs against capacity 2 (1 running + 1 queued): the forward's
	// client retries, gives up on the persistent 503, and must leave the
	// remainder parked — not fail them, not open the circuit.
	jobs := []runner.Job{testJob(0), testJob(1), testJob(2), testJob(3)}
	if _, err := coord.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := coord.Backends()[0].Circuit; got != "closed" {
		t.Fatalf("backpressured backend's circuit = %q, want closed", got)
	}
	close(release) // capacity frees; the sweep re-forwards the parked jobs
	deadline := time.Now().Add(15 * time.Second)
	for _, job := range jobs {
		for {
			res, ok := coord.Result(context.Background(), job.Key())
			if ok {
				if res.Failed() {
					t.Fatalf("backpressured job failed: %s", res.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				st, _ := coord.Wait(context.Background(), job.Key(), 0)
				t.Fatalf("job %s parked forever (status %q): %+v", job.Key(), st, coord.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if s := coord.Stats(); s.Rerouted != 0 {
		t.Fatalf("backpressure caused reroutes: %+v", s)
	}
	if got := coord.Backends()[0].Circuit; got != "closed" {
		t.Fatalf("circuit opened on pure backpressure: %q", got)
	}
}

// TestCoordinatorSubmitAfterClose mirrors the station lifecycle
// contract on the sharded tier.
func TestCoordinatorSubmitAfterClose(t *testing.T) {
	b1 := newTestBackend(t, nil)
	coord := quickCoordinator(t, []string{b1.ts.URL})
	coord.Close()
	coord.Close() // idempotent
	if _, err := coord.SubmitMany(context.Background(), []runner.Job{testJob(0)}); err != ErrStationClosed {
		t.Fatalf("Submit after Close = %v, want ErrStationClosed", err)
	}
}

// TestCoordinatorNoBackendsIs503Shaped: with every circuit open, admission
// refuses with ErrNoBackends (HTTP 503) rather than accepting jobs it
// cannot place.
func TestCoordinatorNoBackendsIs503Shaped(t *testing.T) {
	// A backend that never existed: the address refuses connections.
	coord := quickCoordinator(t, []string{"127.0.0.1:1"})
	// Wait for the prober to open the circuit.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Backends()[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never failed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := coord.SubmitMany(context.Background(), []runner.Job{testJob(0)}); err != ErrNoBackends {
		t.Fatalf("Submit = %v, want ErrNoBackends", err)
	}
	if errHTTPStatus(ErrNoBackends) != http.StatusServiceUnavailable {
		t.Fatal("ErrNoBackends must map to 503")
	}
}

func jsonDecode(r *http.Request, v any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(v)
}

// TestJitterBounds: jitter never panics and keeps d within
// [3d/4, 5d/4), down to 1 ns, which it returns unchanged.
func TestJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{1, 2, 3, time.Millisecond} {
		lo, hi := 3*d/4, 5*d/4
		if d == 1 {
			lo, hi = 1, 2
		}
		for range 100 {
			if got := jitter(d); got < lo || got >= hi {
				t.Fatalf("jitter(%v) = %v, want in [%v, %v)", d, got, lo, hi)
			}
		}
	}
}
