package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpulat/internal/runner"
)

// ErrQueueFull is returned by Submit when the bounded job queue cannot
// accept more work; HTTP maps it to 503 so clients back off.
var ErrQueueFull = errors.New("service: job queue full")

// ErrStationClosed is returned by Submit once Close has begun: a job
// accepted after the workers stop would sit in the queue forever, so the
// station refuses it in bounded time instead. HTTP maps it to 503.
var ErrStationClosed = errors.New("service: station closed")

// Station executes deduplicated jobs on a bounded worker pool with a
// bounded intake queue, writing successes through to the cache. It is
// the server's engine room, but is independently usable (and tested)
// without HTTP. Completed states are retained for the station's
// lifetime: they are the service's result store, a few hundred bytes of
// metrics per unique job.
type Station struct {
	jobs // the key-state table: admission, statuses, counters

	cache  *Cache // may be nil: dedup still works, nothing persists
	exec   runner.ExecFunc
	engine string

	queue chan *jobState
	wg    sync.WaitGroup
	stop  chan struct{}
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
		jobs:   jobs{byKey: map[runner.JobKey]*jobState{}},
		cache:  cache,
		exec:   cfg.Exec,
		engine: cfg.Engine,
		queue:  make(chan *jobState, bound),
		stop:   make(chan struct{}),
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
// queued strictly before the flag flips (and failed below if no worker
// ran it) or refused with ErrStationClosed.
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
	s.mu.Lock()
	s.failLive("service: station closed before the job ran")
	s.mu.Unlock()
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
	s.set(st, StatusRunning)
	s.mu.Unlock()

	job := st.job
	job.Engine = s.engine
	res := execCapturing(s.exec, job)
	res.Job = st.job // wire identity: what was submitted, not how it ran

	if !res.Failed() && s.cache != nil {
		// The entry's bytes are the wire bytes unless there are no
		// metrics: "metrics" is omitempty on the wire only.
		if data, err := s.cache.put(st.job, res); err == nil && len(res.Metrics) > 0 {
			st.wire.Store(&data)
		}
	}

	s.mu.Lock()
	s.finish(st, res)
	s.stats.Executed++
	s.mu.Unlock()
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
// A failed state does NOT dedup (see jobs.attach): the job runs again,
// and earlier waiters keep the failed result they already got.
//
// After Close, Submit returns ErrStationClosed: the workers are gone, so
// admitting the job would strand its waiters.
//
// ctx carries cross-cutting request metadata (the trace ID); admission
// itself is non-blocking and never waits on it.
func (s *Station) Submit(_ context.Context, job runner.Job) (runner.JobKey, Status, error) {
	key := job.Key()
	s.mu.Lock()
	status, ok, err := s.attach(key)
	if err == nil {
		s.stats.Submitted++
	}
	s.mu.Unlock()
	if ok || err != nil {
		return key, status, err
	}

	// Cache probe outside the lock: it does disk I/O.
	var hit *Entry
	var data []byte
	if s.cache != nil {
		if e, d, ok := s.cache.get(key); ok {
			hit, data = &e, d
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Close, or another submitter registering the key, may have come
	// in between.
	if status, ok, err := s.attach(key); ok || err != nil {
		return key, status, err
	}
	if hit != nil {
		st := s.add(key, job)
		// As in run, and only under the job the entry was stored with:
		// a label or seed spelling is part of the wire bytes, not the key.
		if len(hit.Metrics) > 0 && hit.Job == job {
			st.wire.Store(&data)
		}
		s.finish(st, runner.Result{Job: job, Metrics: hit.Metrics})
		s.stats.CacheHits++
		return key, StatusDone, nil
	}
	// Sends happen only under s.mu, so a free slot seen here stays free
	// and the send below never blocks.
	if len(s.queue) == cap(s.queue) {
		s.stats.Rejected++
		return key, "", ErrQueueFull
	}
	s.queue <- s.add(key, job)
	return key, StatusQueued, nil
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

// Wait reports a key's lifecycle position after first blocking (never under s.mu) until the key
// is terminal, d elapses, ctx ends or the station begins to close,
// whichever is first. An unknown key answers false at once.
func (s *Station) Wait(ctx context.Context, key runner.JobKey, d time.Duration) (Status, bool) {
	st := s.lookup(key)
	if st == nil {
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
	// state while we waited, and the live one is what Wait reports.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key].status, true
}

// Result returns the finished result for key. ok is false until the job
// reaches done or failed (or if the key is unknown).
func (s *Station) Result(ctx context.Context, key runner.JobKey) (runner.Result, bool) {
	if st := s.finished(ctx, key); st != nil {
		return st.result, true
	}
	return runner.Result{}, false
}

// finished returns key's state once its result is final, else nil; the
// context is JobService's, unused by a local lookup.
func (s *Station) finished(_ context.Context, key runner.JobKey) *jobState {
	if st := s.lookup(key); st != nil && st.final() {
		return st
	}
	return nil
}

// Do submits job and blocks until its result is ready or ctx expires —
// the synchronous convenience the dedup tests and in-process callers
// use. The result carries no Payload; run the job through a
// runner.Runner for the typed report.
func (s *Station) Do(ctx context.Context, job runner.Job) (runner.Result, error) {
	key, _, err := s.Submit(ctx, job)
	if err != nil {
		return runner.Result{}, err
	}
	st := s.lookup(key)
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
