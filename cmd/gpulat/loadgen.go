package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/service"
)

// loadgenReport is the committed BENCH_service.json shape: the first
// service-tier perf artifact. Everything here is either configuration
// or derived from request timings and /metrics scrapes.
type loadgenReport struct {
	Target     string  `json:"target"`
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	UniqueJobs int     `json:"unique_jobs"`
	ZipfS      float64 `json:"zipf_s"`
	Seed       int64   `json:"seed"`

	WallSeconds float64 `json:"wall_seconds"`
	ServedQPS   float64 `json:"served_qps"`

	LatencySeconds latencyQuantiles `json:"latency_seconds"`
	Cache          cacheOutcome     `json:"cache"`
	HitCurve       []hitPoint       `json:"hit_curve,omitempty"`
}

type latencyQuantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// cacheOutcome folds the final /metrics scrapes: submissions observed
// at the target, how many were answered from a persistent cache
// (summed across the target and every -scrape-addrs endpoint, so a
// sharded tier's backend caches count), and how many deduped onto
// in-flight or finished keys.
type cacheOutcome struct {
	Submitted  float64 `json:"submitted"`
	CacheHits  float64 `json:"cache_hits"`
	Deduped    float64 `json:"deduped"`
	HitRatio   float64 `json:"hit_ratio"`
	DedupRatio float64 `json:"dedup_ratio"`
}

type hitPoint struct {
	TSeconds  float64 `json:"t_seconds"`
	Submitted float64 `json:"submitted"`
	CacheHits float64 `json:"cache_hits"`
	Deduped   float64 `json:"deduped"`
	HitRatio  float64 `json:"hit_ratio"`
}

// cmdLoadgen replays a dedup-heavy job mix against a running station or
// sharded coordinator, scrapes /metrics while doing it, and emits the
// BENCH_service.json baseline. The job population is deterministic
// (fixed seed → fixed keys), and requests are drawn Zipf-distributed
// over it so a handful of hot jobs dominate — the load shape the dedup
// and cache layers exist for.
func cmdLoadgen(args []string) error {
	fs := newFlags("loadgen")
	addr := fs.String("addr", "http://127.0.0.1:8091", "target service base URL")
	requests := fs.Int("requests", 200, "total requests to replay")
	clients := fs.Int("clients", 4, "concurrent client goroutines")
	unique := fs.Int("unique", 24, "distinct jobs in the population")
	zipfS := fs.Float64("zipf", 1.3, "Zipf skew of the request mix (>1; larger = hotter head)")
	seed := fs.Int64("seed", 1, "request-mix seed (population keys are seed-independent)")
	accesses := fs.Int("accesses", 16, "timed loads per chase job (simulation cost knob)")
	scrapeEvery := fs.Duration("scrape", 500*time.Millisecond, "interval between /metrics scrapes during the run")
	scrapeAddrs := fs.String("scrape-addrs", "", "comma-separated extra /metrics endpoints (a coordinator's backends, where the caches live)")
	out := fs.String("out", "BENCH_service.json", "report path (\"-\" for stdout)")
	minHits := fs.Int("min-hits", 0, "fail unless at least this many cache hits were observed (smoke gate)")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for the target to become healthy")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall run deadline")
	quiet := fs.Bool("quiet", false, "suppress the progress line on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *requests < 1 || *clients < 1 || *unique < 1 {
		return usagef("-requests, -clients, and -unique must be positive")
	}
	if *zipfS <= 1 {
		return usagef("-zipf must be > 1 (got %g)", *zipfS)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client := service.NewClient(*addr)
	if err := client.WaitHealthy(ctx, *wait); err != nil {
		return err
	}

	// The scrape set: the target plus any explicitly named endpoints.
	endpoints := []string{strings.TrimRight(*addr, "/")}
	for _, a := range strings.Split(*scrapeAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			endpoints = append(endpoints, strings.TrimRight(a, "/"))
		}
	}

	jobs := loadgenPopulation(*unique, *accesses)
	sequence := loadgenSequence(*requests, *unique, *zipfS, *seed)

	// Scraper: sample the cache-hit trajectory while the load runs.
	// Every scrape is Lint-validated — the loadgen run doubles as a
	// continuous exposition-format check against the live server.
	var curveMu sync.Mutex
	var curve []hitPoint
	start := time.Now()
	sample := func() error {
		point, err := scrapeEndpoints(ctx, endpoints)
		if err != nil {
			return err
		}
		point.TSeconds = time.Since(start).Seconds()
		curveMu.Lock()
		curve = append(curve, point)
		curveMu.Unlock()
		return nil
	}
	scrapeDone := make(chan struct{})
	scrapeStop := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		ticker := time.NewTicker(*scrapeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-scrapeStop:
				return
			case <-ticker.C:
				// Mid-run scrape failures are tolerated (the interesting
				// failures also break the final, mandatory scrape).
				_ = sample()
			}
		}
	}()

	// Replay: the request sequence is sharded round-robin over the
	// clients, each request timed end to end (submit + poll + fetch).
	latencies := make([]float64, len(sequence))
	errs := make([]error, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(sequence); i += *clients {
				job := jobs[sequence[i]]
				t0 := time.Now()
				set, err := client.RunJobs(ctx, []runner.Job{job})
				latencies[i] = time.Since(t0).Seconds()
				if err != nil {
					errs[c] = fmt.Errorf("loadgen: request %d (%s): %w", i, job.Name(), err)
					return
				}
				if r := set.Results[0]; r.Err != "" {
					errs[c] = fmt.Errorf("loadgen: request %d (%s) failed: %s", i, job.Name(), r.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(scrapeStop)
	<-scrapeDone
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Final scrape is mandatory: it provides the report's cache outcome
	// and proves the exposition stayed parseable under load.
	if err := sample(); err != nil {
		return fmt.Errorf("loadgen: final /metrics scrape: %w", err)
	}
	final := curve[len(curve)-1]

	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	mean := 0.0
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(len(sorted))

	report := loadgenReport{
		Target:     *addr,
		Requests:   *requests,
		Clients:    *clients,
		UniqueJobs: *unique,
		ZipfS:      *zipfS,
		Seed:       *seed,

		WallSeconds: wall.Seconds(),
		ServedQPS:   float64(*requests) / wall.Seconds(),
		LatencySeconds: latencyQuantiles{
			Mean: mean,
			P50:  percentile(sorted, 0.50),
			P90:  percentile(sorted, 0.90),
			P95:  percentile(sorted, 0.95),
			P99:  percentile(sorted, 0.99),
			Max:  sorted[len(sorted)-1],
		},
		Cache: cacheOutcome{
			Submitted:  final.Submitted,
			CacheHits:  final.CacheHits,
			Deduped:    final.Deduped,
			HitRatio:   final.HitRatio,
			DedupRatio: ratio(final.Deduped, final.Submitted),
		},
		HitCurve: curve,
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"loadgen: %d requests in %.2fs (%.1f qps), p50 %.1fms p99 %.1fms, cache hits %.0f dedup %.0f\n",
			*requests, wall.Seconds(), report.ServedQPS,
			report.LatencySeconds.P50*1000, report.LatencySeconds.P99*1000,
			final.CacheHits, final.Deduped)
	}
	if final.CacheHits < float64(*minHits) {
		return fmt.Errorf("loadgen: observed %.0f cache hits, want >= %d (is the cache cold, or the coordinator still holding warm states?)",
			final.CacheHits, *minHits)
	}
	return nil
}

// loadgenPopulation builds n distinct cheap pointer-chase jobs. Only
// key-relevant fields vary (Stride and Footprint — Label and Seed are
// excluded from runner.Job.Key), so the population's content keys are
// stable across loadgen invocations and the service caches carry over.
func loadgenPopulation(n, accesses int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		stride := uint32(32) << (i % 5)
		footprint := stride * uint32(16+4*(i/5))
		jobs[i] = runner.Job{
			Kind: runner.KindChase, Arch: "GF100", Seed: 42,
			Options: runner.Options{
				Label:     fmt.Sprintf("loadgen-%03d", i),
				Stride:    stride,
				Footprint: footprint,
				Accesses:  accesses,
			},
		}
	}
	return jobs
}

// loadgenSequence draws the request mix: Zipf over the population, so
// rank 0 is requested far more often than the tail. Deterministic for a
// given (requests, unique, s, seed).
func loadgenSequence(requests, unique int, s float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(unique-1))
	seq := make([]int, requests)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}
	return seq
}

// scrapeEndpoints fetches and Lint-validates /metrics from every
// endpoint, folding the station counters into one hit point. Station
// cache hits are summed across all endpoints — on a sharded tier the
// caches live on the backends — while submitted/deduped are read from
// the first endpoint (the target the load was offered to).
func scrapeEndpoints(ctx context.Context, endpoints []string) (hitPoint, error) {
	var p hitPoint
	for i, ep := range endpoints {
		scrape, err := fetchMetrics(ctx, ep)
		if err != nil {
			return p, err
		}
		p.CacheHits += scrape.Sum("gpulat_station_cache_hits_total")
		if i == 0 {
			p.Submitted = scrape.Sum("gpulat_station_submitted_total")
			p.Deduped = scrape.Sum("gpulat_station_deduped_total")
		}
	}
	p.HitRatio = ratio(p.CacheHits, p.Submitted)
	return p, nil
}

// fetchMetrics GETs one /metrics endpoint, requires the exposition to
// pass the format validator, and parses it.
func fetchMetrics(ctx context.Context, base string) (*metrics.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	if err := metrics.Lint(body); err != nil {
		return nil, fmt.Errorf("loadgen: %s/metrics failed validation: %w", base, err)
	}
	return metrics.Parse(body)
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
