package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpulat/internal/runner"
)

// Status is a job's position in the station's lifecycle.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

func (s Status) terminal() bool { return s == StatusDone || s == StatusFailed }

// ErrQueueFull is returned by Submit when the bounded job queue cannot
// accept more work; HTTP maps it to 503 so clients back off.
var ErrQueueFull = errors.New("service: job queue full")

// ErrStationClosed is returned by Submit once Close has begun: a job
// accepted after the workers stop would sit in the queue forever, so the
// station refuses it in bounded time instead. HTTP maps it to 503.
var ErrStationClosed = errors.New("service: station closed")

// StationStats are the station's monotonic counters and live gauges.
type StationStats struct {
	Submitted int64 `json:"submitted"`
	Executed  int64 `json:"executed"`
	// Deduped counts submissions that attached to an already-known key
	// (in-flight or finished) instead of spawning a simulation.
	Deduped int64 `json:"deduped"`
	// CacheHits counts submissions answered straight from the cache.
	CacheHits int64 `json:"cache_hits"`
	Rejected  int64 `json:"rejected"`
	// Rerouted counts jobs re-forwarded to a different backend after a
	// failure; always zero for a single-node station (coordinator only).
	Rerouted int64 `json:"rerouted,omitempty"`
	// HandoffKeys counts keys whose ring ownership a membership change
	// (join/leave) moved; HandoffTransferred counts the cached results
	// warm-copied to the new owner instead of recomputed (coordinator
	// only).
	HandoffKeys        int64 `json:"handoff_keys,omitempty"`
	HandoffTransferred int64 `json:"handoff_transferred,omitempty"`
	// Replayed counts jobs re-admitted from the write-ahead journal at
	// startup (coordinator only).
	Replayed int64 `json:"replayed,omitempty"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Done     int   `json:"done"`
	Failed   int   `json:"failed"`
	Workers  int   `json:"workers"`
}

// jobState tracks one key through queued → running → done/failed. The
// result is immutable once ready is closed.
type jobState struct {
	job    runner.Job
	status Status
	result runner.Result
	ready  chan struct{}
}

// Station executes deduplicated jobs on a bounded worker pool with a
// bounded intake queue, writing successes through to the cache. It is
// the server's engine room, but is independently usable (and tested)
// without HTTP. Completed states are retained for the station's
// lifetime: they are the service's result store, a few hundred bytes of
// metrics per unique job.
type Station struct {
	cache  *Cache // may be nil: dedup still works, nothing persists
	exec   runner.ExecFunc
	engine string

	queue chan *jobState
	wg    sync.WaitGroup
	stop  chan struct{}

	mu     sync.Mutex
	closed bool
	states map[runner.JobKey]*jobState
	stats  StationStats
}

// StationConfig sizes a Station.
type StationConfig struct {
	// Workers bounds concurrent simulations (<=0 → runner's default,
	// GOMAXPROCS).
	Workers int
	// QueueBound caps jobs admitted but not yet running (<=0 → 4096).
	QueueBound int
	// Engine pins the simulation loop for executed jobs ("" → default;
	// engines are result-identical, so this never affects cached bytes).
	Engine string
	// Exec overrides the job executor (tests; nil → runner.Execute).
	Exec runner.ExecFunc
}

// NewStation builds and starts a station; Close drains the workers.
func NewStation(cache *Cache, cfg StationConfig) *Station {
	bound := cfg.QueueBound
	if bound <= 0 {
		bound = 4096
	}
	workers := (&runner.Runner{Workers: cfg.Workers}).EffectiveWorkers()
	s := &Station{
		cache:  cache,
		exec:   cfg.Exec,
		engine: cfg.Engine,
		queue:  make(chan *jobState, bound),
		stop:   make(chan struct{}),
		states: map[runner.JobKey]*jobState{},
	}
	if s.exec == nil {
		s.exec = runner.Execute
	}
	s.stats.Workers = workers
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the workers, waits for in-flight simulations, and fails
// any still-queued jobs so no waiter blocks forever. Close is
// idempotent, and every Submit that wins the race against it has a
// terminal outcome: the closed flag flips under s.mu, so a job is either
// enqueued strictly before the flag flips (and the drain below fails it
// if no worker ran it) or refused with ErrStationClosed.
func (s *Station) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case st := <-s.queue:
			s.mu.Lock()
			st.status = StatusFailed
			st.result = runner.Result{Job: st.job, Err: "service: station closed before the job ran"}
			s.stats.Queued--
			s.stats.Failed++
			s.mu.Unlock()
			close(st.ready)
		default:
			return
		}
	}
}

func (s *Station) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case st := <-s.queue:
			s.run(st)
		}
	}
}

func (s *Station) run(st *jobState) {
	s.mu.Lock()
	st.status = StatusRunning
	s.stats.Queued--
	s.stats.Running++
	s.mu.Unlock()

	job := st.job
	job.Engine = s.engine
	res := execCapturing(s.exec, job)
	res.Job = st.job // wire identity: what was submitted, not how it ran

	if !res.Failed() && s.cache != nil {
		_ = s.cache.Put(st.job, res)
	}

	s.mu.Lock()
	st.result = res
	if res.Failed() {
		st.status = StatusFailed
		s.stats.Failed++
	} else {
		st.status = StatusDone
		s.stats.Done++
	}
	s.stats.Running--
	s.stats.Executed++
	s.mu.Unlock()
	close(st.ready)
}

// execCapturing runs one job, converting a panic into a failed result —
// the same contract runner.runOne gives the direct path, so a poisonous
// job marks itself failed instead of killing the whole serve process.
func execCapturing(exec runner.ExecFunc, job runner.Job) (res runner.Result) {
	defer func() {
		if p := recover(); p != nil {
			res = runner.Result{Job: job, Err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	return exec(context.Background(), job)
}

// Submit registers a job and returns its key and current status without
// waiting. The three outcomes:
//
//   - a queued/running/done state for the key already exists: the
//     submission attaches to it — this is the N-clients-one-simulation
//     dedup path;
//   - the cache answers: a done state materializes immediately;
//   - otherwise the job is queued, or ErrQueueFull if the intake bound
//     is hit.
//
// A failed state does NOT dedup: failures are never cached (they may be
// environmental), so a resubmission of a previously-failed key runs the
// job again — earlier waiters keep the failed result they already got.
//
// After Close, Submit returns ErrStationClosed: the workers are gone, so
// admitting the job would strand its waiters.
//
// ctx carries cross-cutting request metadata (the trace ID); admission
// itself is non-blocking and never waits on it.
func (s *Station) Submit(ctx context.Context, job runner.Job) (runner.JobKey, Status, error) {
	_ = ctx
	key := job.Key()
	s.mu.Lock()
	if s.closed {
		s.stats.Rejected++
		s.mu.Unlock()
		return key, "", ErrStationClosed
	}
	s.stats.Submitted++
	if st, ok := s.states[key]; ok && st.status != StatusFailed {
		s.stats.Deduped++
		status := st.status
		s.mu.Unlock()
		return key, status, nil
	}
	s.mu.Unlock()

	// Cache probe outside the lock: it does disk I/O.
	if s.cache != nil {
		if e, ok := s.cache.Get(key); ok {
			st := &jobState{
				job:    job,
				status: StatusDone,
				result: runner.Result{Job: job, Metrics: e.Metrics},
				ready:  make(chan struct{}),
			}
			close(st.ready)
			s.mu.Lock()
			if s.closed {
				s.stats.Rejected++
				s.mu.Unlock()
				return key, "", ErrStationClosed
			}
			if prior, raced := s.states[key]; raced && prior.status != StatusFailed {
				// Another submitter registered the key meanwhile; defer
				// to the existing state.
				status := prior.status
				s.stats.Deduped++
				s.mu.Unlock()
				return key, status, nil
			}
			if _, replacingFailed := s.states[key]; replacingFailed {
				s.stats.Failed--
			}
			s.states[key] = st
			s.stats.CacheHits++
			s.stats.Done++
			s.mu.Unlock()
			return key, StatusDone, nil
		}
	}

	st := &jobState{job: job, status: StatusQueued, ready: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		// The enqueue below happens under s.mu while closed is still
		// false, so Close's drain can never miss a queued job.
		s.stats.Rejected++
		s.mu.Unlock()
		return key, "", ErrStationClosed
	}
	if prior, raced := s.states[key]; raced && prior.status != StatusFailed {
		status := prior.status
		s.stats.Deduped++
		s.mu.Unlock()
		return key, status, nil
	}
	select {
	case s.queue <- st:
		if _, replacingFailed := s.states[key]; replacingFailed {
			s.stats.Failed--
		}
		s.states[key] = st
		s.stats.Queued++
		s.mu.Unlock()
		return key, StatusQueued, nil
	default:
		s.stats.Rejected++
		s.mu.Unlock()
		return key, "", ErrQueueFull
	}
}

// SubmitMany submits jobs in order, returning one ticket per accepted
// job. On the first refusal (queue full, station closed) it stops and
// returns the tickets accepted so far together with the error, so the
// HTTP layer can tell clients exactly how far the batch got.
func (s *Station) SubmitMany(ctx context.Context, jobs []runner.Job) ([]JobTicket, error) {
	tickets := make([]JobTicket, 0, len(jobs))
	for _, job := range jobs {
		key, status, err := s.Submit(ctx, job)
		if err != nil {
			return tickets, err
		}
		tickets = append(tickets, JobTicket{Key: key, Status: status})
	}
	return tickets, nil
}

// Status reports a key's lifecycle position.
func (s *Station) Status(key runner.JobKey) (Status, bool) {
	return s.Wait(context.Background(), key, 0)
}

// Wait is Status after first blocking (never under s.mu) until the key
// is terminal, d elapses, ctx ends or the station begins to close,
// whichever is first. An unknown key answers false at once.
func (s *Station) Wait(ctx context.Context, key runner.JobKey, d time.Duration) (Status, bool) {
	s.mu.Lock()
	st, ok := s.states[key]
	s.mu.Unlock()
	if !ok {
		return "", false
	}
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-st.ready:
		case <-timer.C:
		case <-ctx.Done():
		case <-s.stop:
		}
	}
	// Re-read under the lock: a resubmission may have replaced a failed
	// state while we waited, and the live one is what Status reports.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.states[key].status, true
}

// Result returns the finished result for key. ok is false until the job
// reaches done or failed (or if the key is unknown); the context is
// JobService's, unused by a local lookup.
func (s *Station) Result(_ context.Context, key runner.JobKey) (runner.Result, bool) {
	s.mu.Lock()
	st, ok := s.states[key]
	s.mu.Unlock()
	if !ok {
		return runner.Result{}, false
	}
	select {
	case <-st.ready:
		return st.result, true
	default:
		return runner.Result{}, false
	}
}

// Do submits job and blocks until its result is ready or ctx expires —
// the synchronous convenience the dedup tests and in-process callers
// use.
func (s *Station) Do(ctx context.Context, job runner.Job) (runner.Result, error) {
	key, _, err := s.Submit(ctx, job)
	if err != nil {
		return runner.Result{}, err
	}
	s.mu.Lock()
	st := s.states[key]
	s.mu.Unlock()
	if st == nil {
		return runner.Result{}, fmt.Errorf("service: state for %s vanished", key)
	}
	select {
	case <-st.ready:
		return st.result, nil
	case <-ctx.Done():
		return runner.Result{}, ctx.Err()
	}
}

// Stats snapshots the station counters.
func (s *Station) Stats() StationStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
