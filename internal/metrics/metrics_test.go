package metrics

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// walkStats is a snapshot of every shape Walk accepts.
type walkStats struct {
	Jobs    int64 `metric:"test_walked_jobs_total,counter,Jobs walked."`
	Queued  int   `metric:"test_walked_jobs{state=queued},gauge,Jobs by state."`
	Running int   `metric:"test_walked_jobs{state=running}"`
	Up      bool  `metric:"test_walked_up,gauge,Whether it is up."`
	Note    string
	Skipped int `metric:"-"`
	Nested  struct {
		Depth uint64 `metric:"test_walked_depth,gauge,A nested field."`
	}
	Backends []walkBackend
}

type walkBackend struct {
	Addr  string  `metric:"backend"`
	Share float64 `metric:"test_walked_share,gauge,Share by backend."`
	Fails int     `metric:"test_walked_fails_total,counter,Failures by backend."`
}

func testWalkStats() walkStats {
	s := walkStats{Jobs: 12, Queued: 4, Running: 2, Up: true, Note: "not a metric", Skipped: 9,
		Backends: []walkBackend{{"http://b2:2", 0.75, 3}, {"http://b1:1", 0.25, 0}}}
	s.Nested.Depth = 5
	return s
}

// testRegistry builds one family of every shape the service exposes, so
// the golden file and the linter exercise the full writer surface.
func testRegistry() *Registry {
	r := NewRegistry()
	r.Info("test_build_info", "Build identity.", map[string]string{
		"version": "v1.2.3", "scheme": "s1-v1.2.3",
	})
	c := r.NewCounter("test_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	g := r.NewGauge("test_queue_depth", "Jobs waiting.")
	for range 7 {
		g.Inc()
	}
	cv := r.NewCounterVec("test_http_requests_total", "Requests by route and code.", "route", "code")
	cv.With("/v1/jobs", "200").Add(3)
	cv.With("/v1/jobs", "503").Inc()
	cv.With("/v1/healthz", "200").Add(9)
	hv := r.NewHistogramVec("test_route_latency_seconds", "Latency by route.", []float64{0.25, 2.5}, "route")
	hv.With("/v1/results").Observe(0.1)
	hv.With("/v1/results").Observe(1)
	Walk(r, testWalkStats)
	return r
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

// TestExpositionGolden byte-compares the writer's output against the
// committed golden file; GPULAT_METRICS_GOLDEN=write refreshes it.
func TestExpositionGolden(t *testing.T) {
	got := expose(t, testRegistry())
	golden := filepath.Join("testdata", "exposition.golden")
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

// TestLintAcceptsWriterOutput: whatever the writer emits must pass the
// validator — the invariant the /metrics endpoint tests lean on.
func TestLintAcceptsWriterOutput(t *testing.T) {
	if err := Lint([]byte(expose(t, testRegistry()))); err != nil {
		t.Fatalf("Lint rejected writer output: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(expose(t, testRegistry())))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("test_requests_total", nil); !ok || v != 42 {
		t.Errorf("test_requests_total = %v, %v; want 42", v, ok)
	}
	if v, ok := s.Value("test_http_requests_total", map[string]string{"route": "/v1/jobs", "code": "503"}); !ok || v != 1 {
		t.Errorf("labeled lookup = %v, %v; want 1", v, ok)
	}
	if got := s.Sum("test_http_requests_total"); got != 13 {
		t.Errorf("Sum = %v, want 13", got)
	}
	if v, ok := s.Value("test_build_info", map[string]string{"version": "v1.2.3"}); !ok || v != 1 {
		t.Errorf("info metric = %v, %v; want 1", v, ok)
	}
	if s.Type["test_route_latency_seconds"] != KindHistogram {
		t.Errorf("TYPE of histogram = %q", s.Type["test_route_latency_seconds"])
	}
	// Cumulative buckets: 0.25→1, 2.5→2, +Inf→2.
	route := map[string]string{"route": "/v1/results"}
	for le, want := range map[string]float64{"0.25": 1, "2.5": 2, "+Inf": 2} {
		if v, _ := s.Value("test_route_latency_seconds_bucket", map[string]string{"route": "/v1/results", "le": le}); v != want {
			t.Errorf("le=%s bucket = %v, want %v", le, v, want)
		}
	}
	if v, _ := s.Value("test_route_latency_seconds_count", route); v != 2 {
		t.Errorf("_count = %v, want 2", v)
	}
	if v, ok := s.Value("test_walked_jobs", map[string]string{"state": "running"}); !ok || v != 2 {
		t.Errorf("walked constant-label sample = %v, %v; want 2", v, ok)
	}
	if v, ok := s.Value("test_walked_share", map[string]string{"backend": "http://b2:2"}); !ok || v != 0.75 {
		t.Errorf("walked row sample = %v, %v; want 0.75", v, ok)
	}
}

func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":  "# HELP x_total things\nx_total 1\n",
		"no HELP":  "# TYPE x_total counter\nx_total 1\n",
		"bad name": "# HELP BadName things\n# TYPE BadName counter\nBadName 1\n",
		"histogram missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram missing _sum": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"histogram missing _count": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"buckets decrease": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"reserved le": "# HELP x x\n# TYPE x gauge\nx{le=\"1\"} 2\n",
		"garbage":     "!!!\n",
	}
	for name, doc := range cases {
		if err := Lint([]byte(doc)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, doc)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("test_escape", "Label escaping.", "path").With("a\"b\\c\nd").Inc()
	out := expose(t, r)
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("Lint: %v\n%s", err, out)
	}
	s, err := Parse([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("test_escape", map[string]string{"path": "a\"b\\c\nd"}); !ok || v != 1 {
		t.Errorf("escaped label did not round-trip: %v %v\n%s", v, ok, out)
	}
}

func TestHistogramBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(99)
	s := h.snapshot()
	if s.counts[0] != 1 || s.counts[1] != 1 || s.counts[2] != 1 {
		t.Errorf("bucket counts = %v", s.counts)
	}
	if s.count != 3 || s.sum != 101.5 {
		t.Errorf("sum/count = %v/%v", s.sum, s.count)
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.NewGauge("dup_total", "x")
}

// TestConcurrentScrape hammers instruments while scraping — the -race
// gate for the atomic cells and vec child map.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "x")
	h := r.NewHistogramVec("test_hist", "x", nil).With()
	cv := r.NewCounterVec("test_vec_total", "x", "k")
	const iters = 1000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				c.Inc()
				h.Observe(float64(i))
				cv.With([]string{"a", "b", "c", "d"}[i]).Inc()
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		out := expose(t, r)
		if err := Lint([]byte(out)); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	wg.Wait()
	if got := c.Value(); got != 4*iters || math.IsNaN(got) {
		t.Fatalf("counter = %v, want %d", got, 4*iters)
	}
}

// TestWalkReadsOneSnapshotPerScrape: every walked family of a scrape
// comes from one call of the snapshot function.
func TestWalkReadsOneSnapshotPerScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	Walk(r, func() walkStats { calls++; return testWalkStats() })
	for scrape := 1; scrape <= 2; scrape++ {
		expose(t, r)
		if calls != scrape {
			t.Fatalf("%d scrapes called the snapshot %d times", scrape, calls)
		}
	}
}

// TestWalkSelectsFields: naming fields walks only those top-level
// fields.
func TestWalkSelectsFields(t *testing.T) {
	r := NewRegistry()
	Walk(r, testWalkStats, "Jobs", "Backends")
	s, err := Parse([]byte(expose(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range s.Type {
		got = append(got, name)
	}
	slices.Sort(got)
	if want := []string{"test_walked_fails_total", "test_walked_jobs_total", "test_walked_share"}; !slices.Equal(got, want) {
		t.Errorf("families %v, want %v", got, want)
	}
}

// TestWalkPanicsOnUntaggedNumber: a numeric field must declare its
// family or opt out with metric:"-", so a counter added to a stats
// struct cannot go unexported; a tag whose kind is not counter or gauge
// panics too.
func TestWalkPanicsOnUntaggedNumber(t *testing.T) {
	type untagged struct {
		Tagged int64 `metric:"test_tagged_total,counter,Tagged."`
		Added  int64
	}
	type badKind struct {
		Latency float64 `metric:"test_latency,histogram,Not walkable."`
	}
	for name, walk := range map[string]func(*Registry){
		"untagged": func(r *Registry) { Walk(r, func() untagged { return untagged{} }) },
		"bad kind": func(r *Registry) { Walk(r, func() badKind { return badKind{} }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Walk did not panic", name)
				}
			}()
			walk(NewRegistry())
		}()
	}
}
