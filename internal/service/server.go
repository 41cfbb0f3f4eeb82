package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gpulat/internal/runner"
)

// SubmitRequest is the POST /v1/jobs body: either fully expanded jobs,
// a grid to expand server-side, or both (jobs first, then the grid's
// expansion).
type SubmitRequest struct {
	Jobs []runner.Job `json:"jobs,omitempty"`
	Grid *runner.Grid `json:"grid,omitempty"`
}

// JobTicket is one accepted job: its content key and admission status
// and, exactly when that status is terminal, its result (a WireResult),
// so a finished job costs its client no result fetch.
type JobTicket struct {
	Key    runner.JobKey   `json:"key"`
	Status Status          `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
}

// SubmitResponse answers POST /v1/jobs, tickets in request order.
type SubmitResponse struct {
	Tickets []JobTicket `json:"tickets"`
}

// JobStatus answers GET /v1/jobs/{key}; like a ticket, it carries the
// result exactly when the status is terminal.
type JobStatus struct {
	Key    runner.JobKey   `json:"key"`
	Status Status          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// WireResult answers GET /v1/results/{key}: the durable, comparable
// subset of a runner.Result. Index is deliberately absent — position in
// a sweep belongs to the submitting client, not the shared cache.
type WireResult struct {
	Key     runner.JobKey   `json:"key"`
	Job     runner.Job      `json:"job"`
	Metrics []runner.Metric `json:"metrics,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Health answers GET /v1/healthz.
type Health struct {
	OK      bool   `json:"ok"`
	Version string `json:"version"`
	Scheme  string `json:"scheme"`
	// StartedAt is the server's start time in RFC 3339 UTC.
	StartedAt string `json:"started_at"`
	// UptimeSeconds is wall clock since StartedAt, rounded to
	// milliseconds.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Statsz answers GET /v1/statsz, and each /metrics scrape walks one
// (see newServerMetrics).
type Statsz struct {
	Version string       `json:"version"`
	Scheme  string       `json:"scheme"`
	Cache   CacheStats   `json:"cache"`
	Station StationStats `json:"station"`
	// Backends is the sharded tier's per-backend view; absent for a
	// single-node station (see also /v1/backendsz).
	Backends []BackendStatus `json:"backends,omitempty"`
	// RingEpoch is the sharded tier's monotonic membership epoch (1 for
	// the initial membership, bumped per join/leave); absent for a
	// single-node station.
	RingEpoch uint64 `json:"ring_epoch,omitempty" metric:"gpulat_ring_epoch,gauge,Monotonic membership epoch of the backend pool's consistent-hash ring."`
	// UptimeSeconds is wall clock and therefore volatile; the comparable
	// encoding strips it, so statsz snapshots can still be diffed.
	UptimeSeconds float64 `json:"uptime_seconds" metric:"gpulat_uptime_seconds,gauge,Seconds since this server started."`
}

// JobService is the execution tier the HTTP server drives. Two
// implementations exist: Station (single-node: local worker pool +
// cache) and Coordinator (sharded: consistent-hash routing over a pool
// of backend services). The server never cares which.
type JobService interface {
	// SubmitMany admits jobs in order (see Station.Submit for the
	// outcomes); on refusal it returns the tickets accepted so far plus
	// the error. ctx carries request metadata (the trace ID) —
	// implementations must not let its cancellation abandon an admitted
	// job.
	SubmitMany(ctx context.Context, jobs []runner.Job) ([]JobTicket, error)
	// Wait reports a key's lifecycle position, first blocking up to d
	// (<= 0: not at all) for it to become terminal, for ctx to end or for
	// the tier to close.
	Wait(ctx context.Context, key runner.JobKey, d time.Duration) (Status, bool)
	// Result returns the finished result once the key is terminal. ctx
	// contributes only values (the trace ID).
	Result(ctx context.Context, key runner.JobKey) (runner.Result, bool)
	// finished is Result's state, whose wire bytes every terminal answer
	// and the result fetch write; nil until the key is terminal.
	finished(ctx context.Context, key runner.JobKey) *jobState
	// Stats snapshots the tier's counters.
	Stats() StationStats
}

// backendReporter is the optional introspection surface a sharded tier
// adds; /v1/backendsz answers 404 when the service doesn't provide it.
type backendReporter interface {
	Backends() []BackendStatus
	RingEpoch() uint64
}

// membershipManager is the optional elastic-membership surface;
// POST /v1/backends/{join,leave} answer 404 without it.
type membershipManager interface {
	Join(ctx context.Context, addr string) (MembershipChange, error)
	Leave(ctx context.Context, addr string) (MembershipChange, error)
}

// maxJobsPerRequest bounds one POST body's expansion (anti-footgun for
// grids; the queue bound still applies on top).
const maxJobsPerRequest = 10000

// maxBodyBytes bounds a request body at 4 KiB a job: room for each job
// to carry an inline config (about 1.3 KB of JSON).
const maxBodyBytes = maxJobsPerRequest << 12

// Server is the HTTP facade over a JobService: stateless handlers, JSON
// in and out, every mutation funneled through the service's SubmitMany.
type Server struct {
	svc     JobService
	cache   *Cache // may be nil
	mux     *http.ServeMux
	started time.Time
	metrics *serverMetrics
	// drain ends when ReleaseWaits runs, and every held status wait with it.
	drain        context.Context
	releaseWaits context.CancelFunc
}

// NewServer wires the endpoints over a Station or a Coordinator. cache
// may be nil (dedup-only station, or a coordinator — backends own the
// caches there).
func NewServer(svc JobService, cache *Cache) *Server {
	s := &Server{
		svc:     svc,
		cache:   cache,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.drain, s.releaseWaits = context.WithCancel(context.Background())
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET "+statusRoute, s.handleStatus)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /v1/backendsz", s.handleBackendsz)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("POST /v1/cache/pull", s.handleCachePull)
	s.mux.HandleFunc("POST /v1/backends/join", s.handleMembership)
	s.mux.HandleFunc("POST /v1/backends/leave", s.handleMembership)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	return s
}

// maxStatusWait caps GET /v1/jobs/{key}?wait= (and is what RunJobs asks
// for): well inside the coordinator's 15 s CallTimeout and `gpulat
// serve`'s 5 s shutdown drain. Requests carrying ?wait= are counted under
// waitRoute, keeping held waits out of statusRoute's service-time histogram.
const (
	maxStatusWait = 2 * time.Second
	statusRoute   = "/v1/jobs/{key}"
	waitRoute     = statusRoute + "?wait"
)

// ReleaseWaits makes every held (and future) status wait answer at once
// with the current status; register it with http.Server.RegisterOnShutdown
// so a graceful drain never sits out the wait cap. Idempotent.
func (s *Server) ReleaseWaits() { s.releaseWaits() }

// statusWriter captures the response code for the request instruments.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler. Every request passes through the
// observability middleware: a trace ID is adopted from the inbound
// X-Gpulat-Trace header (or minted), echoed on the response, and
// threaded through the request context so submissions forward it to
// backends; the request is then timed into the per-route histogram
// under its ServeMux pattern — bounded label cardinality no matter what
// paths clients probe.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace := r.Header.Get(TraceHeader)
	if trace == "" {
		trace = NewTraceID()
	}
	w.Header().Set(TraceHeader, trace)
	r = r.WithContext(WithTrace(r.Context(), trace))

	route := "unmatched"
	if _, pattern := s.mux.Handler(r); pattern != "" {
		route = pattern
		if _, p, ok := strings.Cut(pattern, " "); ok {
			route = p
		}
		if route == statusRoute && r.URL.Query().Has("wait") {
			route = waitRoute
		}
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	s.metrics.requests.With(route, strconv.Itoa(sw.code)).Inc()
	s.metrics.latency.With(route).Observe(elapsed.Seconds())
}

func writeJSON(w http.ResponseWriter, code int, v any) { writeJSONIndent(w, code, v, true) }

// writeJSONIndent is writeJSON, unindented unless indent. An answer that
// carries a result goes unindented: re-indenting the result doubles the
// write (one ticket with a 426-byte result, on a 2-CPU Xeon: 13 against
// 6 µs, 3.6 against 1.5 KB).
func writeJSONIndent(w http.ResponseWriter, code int, v any, indent bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes r's JSON body into v, refusing unknown fields; on
// failure it answers 400 naming the body's kind, or 413 past
// maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, kind string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "bad %s body: %v", kind, err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, "submit", &req) {
		return
	}
	jobs := req.Jobs
	if g := req.Grid; g != nil {
		// Bound the grid BEFORE expanding it: a few-byte body with a
		// huge Repeats must be rejected, not materialized. Axes within
		// the bound keep Size from overflowing.
		if max(len(g.Archs), len(g.Kernels), len(g.Variants), g.Repeats) > maxJobsPerRequest ||
			len(jobs)+g.Size() > maxJobsPerRequest {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request expands past the per-request bound of %d jobs", maxJobsPerRequest)
			return
		}
		jobs = append(jobs, g.Jobs()...)
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "submit body names no jobs (want jobs and/or grid)")
		return
	}
	if len(jobs) > maxJobsPerRequest {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d jobs exceeds the per-request bound of %d", len(jobs), maxJobsPerRequest)
		return
	}
	// Both tiers' one admission check, before any key is made; a file:
	// arch fails it as an unknown preset, and no file is opened.
	for i := range jobs {
		if _, err := jobs[i].Check(); err != nil {
			writeError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
	}
	tickets, err := s.svc.SubmitMany(r.Context(), jobs)
	indent := true
	for i, t := range tickets {
		js, encErr := s.answer(r.Context(), t.Key, t.Status)
		if encErr != nil {
			writeError(w, http.StatusInternalServerError, "encode result: %v", encErr)
			return
		}
		tickets[i] = JobTicket{Key: t.Key, Status: js.Status, Result: js.Result}
		indent = indent && js.Result == nil
	}
	if err != nil {
		// Admission refused part-way (queue full, station closed, no
		// healthy backends): report how far we got so the client can
		// resubmit the remainder after backing off.
		writeJSONIndent(w, errHTTPStatus(err), map[string]any{
			"error":    err.Error(),
			"accepted": tickets,
		}, indent)
		return
	}
	writeJSONIndent(w, http.StatusOK, SubmitResponse{Tickets: tickets}, indent)
}

// errHTTPStatus maps a service admission error to its HTTP status:
// transient capacity/lifecycle refusals are 503 (back off and retry),
// anything else is a 500.
func errHTTPStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrStationClosed),
		errors.Is(err, ErrNoBackends):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) pathKey(w http.ResponseWriter, r *http.Request) (runner.JobKey, bool) {
	key := runner.JobKey(r.PathValue("key"))
	if !key.Valid() {
		writeError(w, http.StatusBadRequest, "malformed job key %q", key)
		return "", false
	}
	return key, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	key, ok := s.pathKey(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	var wait time.Duration
	if raw, asked := r.URL.Query()["wait"]; asked {
		d, err := time.ParseDuration(raw[0])
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "malformed wait %q (want a duration, e.g. 500ms)", raw[0])
			return
		}
		wait = min(d, maxStatusWait)
		// The wait ends with the request (client gone) or the drain.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(s.drain, cancel)()
		s.metrics.waiting.Inc()
		defer s.metrics.waiting.Dec()
	}
	status, ok := s.svc.Wait(ctx, key, wait)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", key)
		return
	}
	js, err := s.answer(r.Context(), key, status)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	writeJSONIndent(w, http.StatusOK, js, js.Result == nil)
}

// answer is key's status as an answer reports it. No terminal status
// goes on the wire without its result, read through svc.finished; when
// there is none to read (a coordinator re-placed the key as it asked the
// backend, or a failed key was just resubmitted), the answer is the
// key's refreshed status, a still terminal one reading as queued, so the
// client keeps waiting.
func (s *Server) answer(ctx context.Context, key runner.JobKey, status Status) (js JobStatus, err error) {
	js = JobStatus{Key: key, Status: status}
	if !status.terminal() {
		return js, nil
	}
	if st := s.svc.finished(ctx, key); st != nil {
		js.Status, js.Error = st.status, st.result.Err
		js.Result, err = st.encoded() // once per key, however many answers carry it
	} else if js.Status, _ = s.svc.Wait(ctx, key, 0); js.Status.terminal() {
		js.Status = StatusQueued
	}
	return js, err
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, ok := s.pathKey(w, r)
	if !ok {
		return
	}
	st := s.svc.finished(r.Context(), key)
	if st == nil {
		if _, known := s.svc.Wait(r.Context(), key, 0); known {
			writeError(w, http.StatusConflict, "job %s not finished", key)
		} else {
			writeError(w, http.StatusNotFound, "unknown job %s", key)
		}
		return
	}
	data, err := st.encoded() // once per key, however many clients fetch it
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		OK:            true,
		Version:       Version(),
		Scheme:        SchemeTag(),
		StartedAt:     s.started.UTC().Format(time.RFC3339),
		UptimeSeconds: float64(time.Since(s.started).Milliseconds()) / 1000,
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsz())
}

// statsz snapshots every counter the server reports, reading each
// source once.
func (s *Server) statsz() Statsz {
	st := Statsz{
		Version:       Version(),
		Scheme:        SchemeTag(),
		Station:       s.svc.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	if rep, ok := s.svc.(backendReporter); ok {
		st.Backends = rep.Backends()
		st.RingEpoch = rep.RingEpoch()
	}
	return st
}

// Backendsz answers GET /v1/backendsz: the sharded tier's per-backend
// routing and health view at the current membership epoch.
type Backendsz struct {
	// Epoch is the monotonic membership epoch the listed ring shares
	// were computed at.
	Epoch    uint64          `json:"epoch"`
	Backends []BackendStatus `json:"backends"`
}

func (s *Server) handleBackendsz(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.svc.(backendReporter)
	if !ok {
		writeError(w, http.StatusNotFound, "not a coordinator: this service runs jobs locally")
		return
	}
	writeJSON(w, http.StatusOK, Backendsz{Epoch: rep.RingEpoch(), Backends: rep.Backends()})
}

// CachePullRequest is the POST /v1/cache/pull body: pull the cached
// results for Keys from the backend at From into this server's cache.
type CachePullRequest struct {
	From string          `json:"from"`
	Keys []runner.JobKey `json:"keys"`
}

// CachePullResult answers POST /v1/cache/pull.
type CachePullResult struct {
	// Transferred entries were fetched from the source and written to
	// this server's cache; Skipped were already present locally; Missing
	// were not in the source's cache either (they stay cold and will be
	// recomputed on demand).
	Transferred int `json:"transferred"`
	Skipped     int `json:"skipped"`
	Missing     int `json:"missing"`
}

// handleCacheGet serves one cache entry to a peer — the read half of
// the cache-warm handoff. Only servers with a cache answer.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotFound, "this server has no result cache")
		return
	}
	key, ok := s.pathKey(w, r)
	if !ok {
		return
	}
	e, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "key %s not cached", key)
		return
	}
	s.metrics.transferOut.Inc()
	writeJSON(w, http.StatusOK, e)
}

// handleCachePull makes this server fetch cached results from a peer
// into its own cache — the write half of the cache-warm handoff. The
// coordinator drives it at membership changes so a joining backend
// inherits its newly-owned keys' results instead of recomputing them.
// Entries are validated content-addressed: an entry whose job does not
// hash to the requested key is discarded.
func (s *Server) handleCachePull(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotFound, "this server has no result cache")
		return
	}
	var req CachePullRequest
	if !decodeBody(w, r, "cache-pull", &req) {
		return
	}
	from := normalizeBackendAddr(req.From)
	if from == "" {
		writeError(w, http.StatusBadRequest, "cache-pull body names no source backend")
		return
	}
	if len(req.Keys) == 0 {
		writeError(w, http.StatusBadRequest, "cache-pull body names no keys")
		return
	}
	if len(req.Keys) > maxJobsPerRequest {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d keys exceeds the per-request bound of %d", len(req.Keys), maxJobsPerRequest)
		return
	}
	src := NewClient(from)
	var res CachePullResult
	for _, key := range req.Keys {
		if !key.Valid() {
			res.Missing++
			continue
		}
		if _, ok := s.cache.Get(key); ok {
			res.Skipped++
			continue
		}
		e, err := src.CacheEntry(r.Context(), key)
		if err != nil || e.Key != key || e.Job.Key() != key {
			res.Missing++
			continue
		}
		if s.cache.Put(e.Job, runner.Result{Job: e.Job, Metrics: e.Metrics}) != nil {
			res.Missing++
			continue
		}
		s.metrics.transferIn.Inc()
		res.Transferred++
	}
	writeJSON(w, http.StatusOK, res)
}

// handleMembership serves POST /v1/backends/join and /v1/backends/leave
// on a coordinator: body {"addr": "host:port"}, answer the resulting
// MembershipChange. Leave of a non-member is 404; removing the last
// backend is 409.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	mm, ok := s.svc.(membershipManager)
	if !ok {
		writeError(w, http.StatusNotFound, "not a coordinator: this service has no backend pool")
		return
	}
	var req membershipRequest
	if !decodeBody(w, r, "membership", &req) {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		writeError(w, http.StatusBadRequest, "membership body names no backend address")
		return
	}
	var ch MembershipChange
	var err error
	if strings.HasSuffix(r.URL.Path, "/join") {
		ch, err = mm.Join(r.Context(), req.Addr)
	} else {
		ch, err = mm.Leave(r.Context(), req.Addr)
	}
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownBackend):
			code = http.StatusNotFound
		case errors.Is(err, ErrLastBackend):
			code = http.StatusConflict
		case errors.Is(err, ErrStationClosed):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ch)
}

// membershipRequest is the POST /v1/backends/{join,leave} body.
type membershipRequest struct {
	Addr string `json:"addr"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Catalog())
}
