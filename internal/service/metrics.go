package service

import (
	"time"

	"gpulat/internal/metrics"
)

// serverMetrics is the server's observability surface: the registry
// behind GET /metrics plus the HTTP instruments the middleware drives.
// Everything the service tier already counts (StationStats, CacheStats,
// BackendStatus) is exported through scrape-time collector functions —
// the mutex-guarded counters stay the single source of truth, and the
// metrics layer adds no second bookkeeping path that could drift.
type serverMetrics struct {
	reg *metrics.Registry
	// requests counts finished requests by route pattern and status code.
	requests *metrics.CounterVec
	// latency observes request wall time by route pattern.
	latency *metrics.HistogramVec
	// waiting is the number of status long-polls currently held open.
	waiting *metrics.Gauge
	// transferIn/transferOut count cache entries received from / served
	// to peers over the cache-warm-handoff endpoints. Only set when the
	// server has a cache — exactly the condition under which the cache
	// handlers run.
	transferIn  *metrics.Counter
	transferOut *metrics.Counter
}

// newServerMetrics builds the registry over a JobService, its optional
// cache, and the server start time. Family order here is exposition
// order, so keep related families adjacent.
func newServerMetrics(svc JobService, cache *Cache, started time.Time) *serverMetrics {
	reg := metrics.NewRegistry()
	reg.Info("gpulat_build_info", "Build identity of this gpulat process.", map[string]string{
		"version": Version(),
		"scheme":  SchemeTag(),
	})
	reg.GaugeFunc("gpulat_uptime_seconds", "Seconds since this server started.",
		func() float64 { return time.Since(started).Seconds() })

	// Station counters: one collector per StationStats field. Each takes
	// the station snapshot independently — the snapshot is a cheap
	// mutex-guarded copy, and per-family consistency is all Prometheus
	// semantics promise anyway.
	counters := []struct {
		name, help string
		field      func(StationStats) int64
	}{
		{"gpulat_station_submitted_total", "Jobs submitted to this service (before dedup).",
			func(s StationStats) int64 { return s.Submitted }},
		{"gpulat_station_executed_total", "Jobs actually simulated by this station's workers.",
			func(s StationStats) int64 { return s.Executed }},
		{"gpulat_station_deduped_total", "Submissions attached to an already-known key.",
			func(s StationStats) int64 { return s.Deduped }},
		{"gpulat_station_cache_hits_total", "Submissions answered straight from the result cache.",
			func(s StationStats) int64 { return s.CacheHits }},
		{"gpulat_station_rejected_total", "Submissions refused (queue full or service closed).",
			func(s StationStats) int64 { return s.Rejected }},
		{"gpulat_station_rerouted_total", "Jobs re-placed on another backend after a failure (coordinator only).",
			func(s StationStats) int64 { return s.Rerouted }},
		{"gpulat_station_handoff_keys_total", "Keys whose ring ownership a membership change moved (coordinator only).",
			func(s StationStats) int64 { return s.HandoffKeys }},
		{"gpulat_station_handoff_transferred_total", "Cached results warm-copied to a key's new owner instead of recomputed (coordinator only).",
			func(s StationStats) int64 { return s.HandoffTransferred }},
		{"gpulat_station_replayed_total", "Jobs re-admitted from the write-ahead journal at startup (coordinator only).",
			func(s StationStats) int64 { return s.Replayed }},
	}
	for _, c := range counters {
		field := c.field
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(field(svc.Stats())) })
	}
	reg.VecFunc(metrics.KindGauge, "gpulat_station_jobs",
		"Jobs currently known to this service, by lifecycle state.", []string{"state"},
		func(emit func([]string, float64)) {
			s := svc.Stats()
			emit([]string{"queued"}, float64(s.Queued))
			emit([]string{"running"}, float64(s.Running))
			emit([]string{"done"}, float64(s.Done))
			emit([]string{"failed"}, float64(s.Failed))
		})
	reg.GaugeFunc("gpulat_station_workers", "Size of the simulation worker pool (0 for a coordinator).",
		func() float64 { return float64(svc.Stats().Workers) })

	if cache != nil {
		cacheCounters := []struct {
			name, help string
			field      func(CacheStats) int64
		}{
			{"gpulat_cache_hits_total", "Result-cache lookups answered from disk.",
				func(s CacheStats) int64 { return s.Hits }},
			{"gpulat_cache_misses_total", "Result-cache lookups that found nothing.",
				func(s CacheStats) int64 { return s.Misses }},
			{"gpulat_cache_puts_total", "Results written through to the cache.",
				func(s CacheStats) int64 { return s.Puts }},
			{"gpulat_cache_evictions_total", "Entries removed by the LRU bound.",
				func(s CacheStats) int64 { return s.Evictions }},
		}
		for _, c := range cacheCounters {
			field := c.field
			reg.CounterFunc(c.name, c.help, func() float64 { return float64(field(cache.Stats())) })
		}
		reg.GaugeFunc("gpulat_cache_entries", "Entries currently in the result cache.",
			func() float64 { return float64(cache.Stats().Entries) })
		reg.GaugeFunc("gpulat_cache_bytes", "On-disk size of the result cache in bytes.",
			func() float64 { return float64(cache.Stats().Bytes) })
	}

	if rep, ok := svc.(backendReporter); ok {
		reg.GaugeFunc("gpulat_ring_epoch",
			"Monotonic membership epoch of the backend pool's consistent-hash ring.",
			func() float64 { return float64(rep.RingEpoch()) })
		backendVec := func(kind metrics.Kind, name, help string, field func(BackendStatus) float64) {
			reg.VecFunc(kind, name, help, []string{"backend"},
				func(emit func([]string, float64)) {
					for _, b := range rep.Backends() {
						emit([]string{b.Addr}, field(b))
					}
				})
		}
		backendVec(metrics.KindGauge, "gpulat_backend_up",
			"1 while the backend's circuit is closed (routable), else 0.",
			func(b BackendStatus) float64 {
				if b.Healthy {
					return 1
				}
				return 0
			})
		backendVec(metrics.KindGauge, "gpulat_backend_assigned",
			"Live (non-terminal) keys currently placed on the backend.",
			func(b BackendStatus) float64 { return float64(b.Assigned) })
		backendVec(metrics.KindGauge, "gpulat_backend_consecutive_failures",
			"Worse of the backend's consecutive probe/call failure streaks.",
			func(b BackendStatus) float64 { return float64(b.ConsecutiveFailures) })
		backendVec(metrics.KindCounter, "gpulat_backend_probes_total",
			"Health probes sent to the backend.",
			func(b BackendStatus) float64 { return float64(b.Probes) })
		backendVec(metrics.KindCounter, "gpulat_backend_submitted_total",
			"Jobs forwarded to the backend (including re-forwards).",
			func(b BackendStatus) float64 { return float64(b.Submitted) })
		backendVec(metrics.KindCounter, "gpulat_backend_rerouted_away_total",
			"Keys moved off the backend after it failed.",
			func(b BackendStatus) float64 { return float64(b.ReroutedAway) })
		backendVec(metrics.KindGauge, "gpulat_backend_ring_share",
			"Fraction of the consistent-hash ring the backend's vnodes own at the current epoch.",
			func(b BackendStatus) float64 { return b.Share })
	}

	m := &serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("gpulat_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: reg.NewHistogramVec("gpulat_http_request_duration_seconds",
			"HTTP request wall time by route pattern.", metrics.DefBuckets, "route"),
		waiting: reg.NewGauge("gpulat_http_waiting",
			"Status long-polls (GET /v1/jobs/{key}?wait=) currently held open."),
	}
	if cache != nil {
		m.transferIn = reg.NewCounter("gpulat_cache_transfer_in_total",
			"Cache entries pulled from a peer backend during membership handoff.")
		m.transferOut = reg.NewCounter("gpulat_cache_transfer_out_total",
			"Cache entries served to a peer backend during membership handoff.")
	}
	return m
}
