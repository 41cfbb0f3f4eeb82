package service

import "gpulat/internal/metrics"

// serverMetrics is the server's observability surface: the registry
// behind GET /metrics plus the HTTP instruments the middleware drives.
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

// newServerMetrics builds s's registry. What the tier already counts is
// walked from one Statsz per scrape, the document /v1/statsz writes, so
// the two cannot drift: each family is the metric tag of the field that
// holds it. The cache families need a cache, and the backend families
// and the ring epoch a sharded tier.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	reg.Info("gpulat_build_info", "Build identity of this gpulat process.", map[string]string{
		"version": Version(),
		"scheme":  SchemeTag(),
	})
	fields := []string{"Station", "UptimeSeconds"}
	if s.cache != nil {
		fields = append(fields, "Cache")
	}
	if _, ok := s.svc.(backendReporter); ok {
		fields = append(fields, "Backends", "RingEpoch")
	}
	metrics.Walk(reg, s.statsz, fields...)

	m := &serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("gpulat_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: reg.NewHistogramVec("gpulat_http_request_duration_seconds",
			"HTTP request wall time by route pattern.", metrics.DefBuckets, "route"),
		waiting: reg.NewGauge("gpulat_http_waiting",
			"Status long-polls (GET /v1/jobs/{key}?wait=) currently held open."),
	}
	if s.cache != nil {
		m.transferIn = reg.NewCounter("gpulat_cache_transfer_in_total",
			"Cache entries pulled from a peer backend during membership handoff.")
		m.transferOut = reg.NewCounter("gpulat_cache_transfer_out_total",
			"Cache entries served to a peer backend during membership handoff.")
	}
	return m
}
