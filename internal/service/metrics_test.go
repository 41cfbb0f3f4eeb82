package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpulat/internal/metrics"
	"gpulat/internal/runner"
)

func scrapeMetrics(t *testing.T, base string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, body)
	}
	s, err := metrics.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsEndpointStation: /metrics on a station server covers the
// build-info, station, cache, and HTTP-latency families, with values
// agreeing with the service's own counters.
func TestMetricsEndpointStation(t *testing.T) {
	ts, _, station := newTestServer(t, StationConfig{
		Workers: 2,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	client := NewClient(ts.URL)
	ctx := context.Background()
	if _, err := client.RunJobs(ctx, []runner.Job{testJob(0), testJob(1), testJob(0)}); err != nil {
		t.Fatal(err)
	}

	s := scrapeMetrics(t, ts.URL)
	if v, ok := s.Value("gpulat_build_info", map[string]string{"version": Version(), "scheme": SchemeTag()}); !ok || v != 1 {
		t.Errorf("build info = %v, %v", v, ok)
	}
	if v, _ := s.Value("gpulat_uptime_seconds", nil); v < 0 {
		t.Errorf("uptime = %v", v)
	}
	st := station.Stats()
	if v, _ := s.Value("gpulat_station_submitted_total", nil); v != float64(st.Submitted) {
		t.Errorf("submitted metric = %v, stats say %d", v, st.Submitted)
	}
	if v, _ := s.Value("gpulat_station_deduped_total", nil); v != 1 {
		t.Errorf("deduped = %v, want 1", v)
	}
	if v, _ := s.Value("gpulat_station_jobs", map[string]string{"state": "done"}); v != 2 {
		t.Errorf("done jobs = %v, want 2", v)
	}
	if v, ok := s.Value("gpulat_cache_puts_total", nil); !ok || v != 2 {
		t.Errorf("cache puts = %v, %v; want 2", v, ok)
	}
	if v, ok := s.Value("gpulat_cache_bytes", nil); !ok || v <= 0 {
		t.Errorf("cache bytes = %v, %v; want > 0", v, ok)
	}
	// The submit and poll calls above must have landed in the HTTP
	// families under their route patterns.
	if v, _ := s.Value("gpulat_http_requests_total", map[string]string{"route": "/v1/jobs", "code": "200"}); v < 1 {
		t.Errorf("no /v1/jobs requests counted")
	}
	if v, _ := s.Value("gpulat_http_request_duration_seconds_count", map[string]string{"route": "/v1/jobs"}); v < 1 {
		t.Errorf("no /v1/jobs latency observed")
	}
	// A second scrape must still lint (the walk's snapshot is
	// re-entrant) and must have counted the first one.
	s2 := scrapeMetrics(t, ts.URL)
	if v, _ := s2.Value("gpulat_http_requests_total", map[string]string{"route": "/metrics", "code": "200"}); v < 1 {
		t.Errorf("scrape itself not counted: %v", v)
	}
}

// TestMetricsEndpointCoordinator: a coordinator's /metrics adds the
// per-backend families, labeled by backend address.
func TestMetricsEndpointCoordinator(t *testing.T) {
	backend, _, _ := newTestServer(t, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	coord, err := NewCoordinator(CoordinatorConfig{
		Backends:      []string{backend.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(NewServer(coord, nil))
	t.Cleanup(front.Close)

	if _, err := NewClient(front.URL).RunJobs(context.Background(), []runner.Job{testJob(0)}); err != nil {
		t.Fatal(err)
	}
	s := scrapeMetrics(t, front.URL)
	want := map[string]string{"backend": backend.URL}
	if v, ok := s.Value("gpulat_backend_up", want); !ok || v != 1 {
		t.Errorf("backend_up = %v, %v; want 1", v, ok)
	}
	if v, ok := s.Value("gpulat_backend_submitted_total", want); !ok || v < 1 {
		t.Errorf("backend_submitted = %v, %v; want >= 1", v, ok)
	}
	if _, ok := s.Value("gpulat_cache_hits_total", nil); ok {
		t.Errorf("coordinator (no cache) must not expose cache families")
	}
	// The whole family list, pinned: what dashboards and the shard gate
	// grep for.
	var got []string
	for family := range s.Type {
		got = append(got, family)
	}
	slices.Sort(got)
	families := strings.Fields(`
		gpulat_backend_assigned gpulat_backend_consecutive_failures gpulat_backend_probes_total
		gpulat_backend_rerouted_away_total gpulat_backend_ring_share gpulat_backend_submitted_total
		gpulat_backend_up gpulat_build_info gpulat_http_request_duration_seconds
		gpulat_http_requests_total gpulat_http_waiting gpulat_ring_epoch
		gpulat_station_cache_hits_total gpulat_station_deduped_total gpulat_station_executed_total
		gpulat_station_handoff_keys_total gpulat_station_handoff_transferred_total gpulat_station_jobs
		gpulat_station_rejected_total gpulat_station_replayed_total gpulat_station_rerouted_total
		gpulat_station_submitted_total gpulat_station_workers gpulat_uptime_seconds`)
	if !slices.Equal(got, families) {
		t.Errorf("coordinator families:\n got %v\nwant %v", got, families)
	}
}

// TestTraceHeaderPropagation: a trace ID offered to the coordinator
// front door must be echoed on its response AND arrive at the backend
// on the forwarded submission; an absent ID is minted.
func TestTraceHeaderPropagation(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	backendStation := NewStation(nil, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	t.Cleanup(backendStation.Close)
	inner := NewServer(backendStation, nil)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			mu.Lock()
			seen[r.Method+" "+r.Header.Get(TraceHeader)]++
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(backend.Close)

	coord, err := NewCoordinator(CoordinatorConfig{
		Backends:      []string{backend.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(NewServer(coord, nil))
	t.Cleanup(front.Close)

	body := strings.NewReader(`{"jobs":[{"kind":"dynamic","arch":"GF106","kernel":"vecadd","seed":9,"options":{"test_scale":true}}]}`)
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "trace-prop-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "trace-prop-test" {
		t.Errorf("response trace = %q, want the offered ID echoed", got)
	}
	mu.Lock()
	forwarded := seen["POST trace-prop-test"]
	mu.Unlock()
	if forwarded == 0 {
		t.Errorf("backend never saw the trace header; saw %v", seen)
	}

	// The status (wait) forward carries the inbound ID too, not just the
	// submit forward. Its answer carries the result, which the
	// coordinator keeps, so the result read forwards nothing.
	key := runner.Job{Kind: runner.KindDynamic, Arch: "GF106", Kernel: "vecadd", Seed: 9,
		Options: runner.Options{TestScale: true}}.Key()
	ctx := WithTrace(context.Background(), "trace-prop-read")
	client := NewClient(front.URL)
	if js, err := client.Wait(ctx, key, time.Second); err != nil || js.Status != StatusDone || js.Result == nil {
		t.Fatalf("waited status = %+v, %v", js, err)
	}
	if _, err := client.Result(ctx, key); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	reads := seen["GET trace-prop-read"]
	mu.Unlock()
	if reads != 1 {
		t.Errorf("backend saw %d GETs under the reader's trace ID, want the status forward; saw %v", reads, seen)
	}

	// No inbound ID: the server mints one and echoes it.
	resp2, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(TraceHeader) == "" {
		t.Errorf("no trace ID minted for an untraced request")
	}
}

// TestStatszRaceHammer is the satellite audit for /v1/statsz: statsz,
// /metrics scrapes, and Stats() snapshots run concurrently with a storm
// of submits. Run under -race (the CI test target does), any unguarded
// StationStats field access fails the build; every /metrics body scraped
// mid-storm must also pass metrics.Lint.
func TestStatszRaceHammer(t *testing.T) {
	release := make(chan struct{})
	ts, _, station := newTestServer(t, StationConfig{
		Workers:    4,
		QueueBound: 100000,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			<-release // keep jobs in flight while readers hammer
			return testResult(job)
		},
	})
	const (
		submitters = 4
		readers    = 3
		perWorker  = 150
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := station.Submit(context.Background(), testJob(g*perWorker+i)); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/v1/statsz")
				if err != nil {
					t.Errorf("statsz: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				_ = station.Stats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("metrics: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				// A scrape taken with jobs queued and in flight must
				// still be a valid exposition.
				err = metrics.Lint(body)
			}
			if err != nil {
				t.Errorf("metrics scrape under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(release)
	st := station.Stats()
	if st.Submitted != submitters*perWorker {
		t.Errorf("submitted = %d, want %d", st.Submitted, submitters*perWorker)
	}
}

// TestHealthzUptime covers the satellite /v1/healthz additions.
func TestHealthzUptime(t *testing.T) {
	ts, _, _ := newTestServer(t, StationConfig{Workers: 1})
	h, err := NewClient(ts.URL).Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	started, err := time.Parse(time.RFC3339, h.StartedAt)
	if err != nil {
		t.Fatalf("started_at %q: %v", h.StartedAt, err)
	}
	if since := time.Since(started); since < 0 || since > time.Hour {
		t.Errorf("started_at %s implausible (%s ago)", h.StartedAt, since)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
}

// TestCacheBytesAccounting: the Bytes gauge follows puts, overwrites,
// evictions, and reopen.
func TestCacheBytesAccounting(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testJob(i), testResult(testJob(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes <= 0 {
		t.Fatalf("after 3 puts: %+v", st)
	}
	// Overwrite must not double count.
	before := st.Bytes
	if err := c.Put(testJob(0), testResult(testJob(0))); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got != before {
		t.Errorf("overwrite changed bytes: %d -> %d", before, got)
	}
	// The 4th distinct entry evicts one; bytes stays the sum of 3.
	if err := c.Put(testJob(3), testResult(testJob(3))); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	// Reopen rebuilds the byte count from disk.
	c2, err := OpenCache(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c2.Stats().Bytes, st.Bytes; got != want {
		t.Errorf("reopened bytes = %d, want %d", got, want)
	}
}

// TestUnmatchedRouteLabel: requests for unknown paths fold into the
// single "unmatched" label instead of exploding cardinality.
func TestUnmatchedRouteLabel(t *testing.T) {
	ts, _, _ := newTestServer(t, StationConfig{Workers: 1})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/no/such/path/%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s := scrapeMetrics(t, ts.URL)
	if v, ok := s.Value("gpulat_http_requests_total", map[string]string{"route": "unmatched", "code": "404"}); !ok || v != 3 {
		t.Errorf("unmatched requests = %v, %v; want 3", v, ok)
	}
}

// statsStub is a JobService that answers only Stats, counting the reads.
type statsStub struct {
	JobService
	stats StationStats
	reads *atomic.Int64
}

func (s statsStub) Stats() StationStats {
	s.reads.Add(1)
	return s.stats
}

// reporterStub adds a coordinator's backendReporter to statsStub.
type reporterStub struct {
	statsStub
	backends     []BackendStatus
	epoch        uint64
	backendReads *atomic.Int64
}

func (s reporterStub) Backends() []BackendStatus {
	s.backendReads.Add(1)
	return slices.Clone(s.backends)
}

func (s reporterStub) RingEpoch() uint64 { return s.epoch }

// distinct sets every numeric or boolean field of the struct v points
// to a value no other field holds (base+i), so a crossed mapping shows.
func distinct(v any, base int) {
	fields := reflect.ValueOf(v).Elem()
	for i := range fields.NumField() {
		switch f := fields.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base + i))
		case reflect.Float64:
			f.SetFloat(float64(base+i) / 1000)
		case reflect.Bool:
			f.SetBool(base%2 == 0)
		}
	}
}

// stubTiers returns a station server over a real cache with known
// counters and a coordinator server over two backends, both on stubs
// whose every numeric field is distinct, plus the stubs' read counters.
func stubTiers(t *testing.T) (station, coord *Server, statsReads, backendReads *atomic.Int64) {
	t.Helper()
	cache, err := OpenCache(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 { // 4 misses and 4 puts; the bound of 2 evicts 2
		job := testJob(i)
		cache.Get(job.Key())
		if err := cache.Put(job, testResult(job)); err != nil {
			t.Fatal(err)
		}
	}
	cache.Get(testJob(0).Key()) // evicted: a fifth miss
	for range 3 {
		cache.Get(testJob(3).Key()) // 3 hits
	}
	statsReads, backendReads = new(atomic.Int64), new(atomic.Int64)
	stub := statsStub{reads: statsReads}
	distinct(&stub.stats, 100)
	backends := []BackendStatus{{Addr: "http://b1:1", Circuit: "closed"}, {Addr: "http://b2:2", Circuit: "open"}}
	distinct(&backends[0], 200)
	distinct(&backends[1], 301)
	return NewServer(stub, cache),
		NewServer(reporterStub{statsStub: stub, backends: backends, epoch: 7, backendReads: backendReads}, nil),
		statsReads, backendReads
}

// stableExposition scrapes srv's /metrics once and returns it minus the
// wall-clock families (uptime and the HTTP instruments), with families
// sorted by name.
func stableExposition(t *testing.T, srv *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if err := metrics.Lint([]byte(body)); err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, body)
	}
	var blocks []string
	for _, block := range strings.Split(body, "# HELP ")[1:] {
		name, _, _ := strings.Cut(block, " ")
		if name != "gpulat_uptime_seconds" && !strings.HasPrefix(name, "gpulat_http_") {
			blocks = append(blocks, "# HELP "+block)
		}
	}
	slices.Sort(blocks)
	return strings.Join(blocks, "")
}

// TestMetricsExpositionGolden pins every family a station and a
// coordinator export from their stats (name, HELP, TYPE, labels and the
// field each value comes from) against testdata/metrics.golden;
// GPULAT_METRICS_GOLDEN=write refreshes it.
func TestMetricsExpositionGolden(t *testing.T) {
	station, coord, _, _ := stubTiers(t)
	got := "== station ==\n" + stableExposition(t, station) + "== coordinator ==\n" + stableExposition(t, coord)
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("GPULAT_METRICS_GOLDEN") == "write" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with GPULAT_METRICS_GOLDEN=write to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestOneReadPerScrape: a scrape takes one snapshot of each source, so
// every family of one scrape describes the same moment.
func TestOneReadPerScrape(t *testing.T) {
	_, coord, statsReads, backendReads := stubTiers(t)
	stableExposition(t, coord)
	if s, b := statsReads.Load(), backendReads.Load(); s != 1 || b != 1 {
		t.Errorf("one scrape read Stats() %d times and Backends() %d times, want once each", s, b)
	}
}
