package service

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// TestStationDedupesInFlight is the singleflight contract: N concurrent
// clients asking for the same key share one simulation.
func TestStationDedupesInFlight(t *testing.T) {
	var execs atomic.Int32
	release := make(chan struct{})
	st := newStation(t, nil, StationConfig{
		Workers: 4,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			execs.Add(1)
			<-release
			return testResult(job)
		},
	})

	job := testJob(0)
	const clients = 16
	var wg sync.WaitGroup
	results := make([]runner.Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Do(context.Background(), job)
		}(i)
	}
	// Let every client submit before the one simulation finishes.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Submitted < clients {
		if time.Now().After(deadline) {
			t.Fatalf("clients stuck: %+v", st.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(results[i].Metrics) == 0 {
			t.Fatalf("client %d got empty result", i)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d clients caused %d executions, want 1", clients, n)
	}
	s := st.Stats()
	if s.Deduped != clients-1 {
		t.Fatalf("deduped = %d, want %d (stats %+v)", s.Deduped, clients-1, s)
	}
}

func TestStationBoundedQueueRejects(t *testing.T) {
	block := make(chan struct{})
	st := newStation(t, nil, StationConfig{
		Workers:    1,
		QueueBound: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			<-block
			return testResult(job)
		},
	})
	defer close(block)

	// First job occupies the worker (drained from the queue), second
	// fills the queue; with a bound of 1 some later distinct submission
	// must be rejected — the worker races the feeder, so allow one
	// in-between success.
	var rejected bool
	for i := 0; i < 4; i++ {
		_, _, err := st.Submit(context.Background(), testJob(i))
		if err == ErrQueueFull {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Fatalf("queue bound never enforced: %+v", st.Stats())
	}
	if st.Stats().Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st.Stats())
	}
}

func TestStationServesFromCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(7)
	if err := cache.Put(job, testResult(job)); err != nil {
		t.Fatal(err)
	}
	st := newStation(t, cache, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			t.Error("cache hit still executed")
			return testResult(job)
		},
	})

	key, status, err := st.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusDone {
		t.Fatalf("cached submission status = %s", status)
	}
	res, ok := st.Result(context.Background(), key)
	if !ok || len(res.Metrics) == 0 {
		t.Fatalf("cached result unavailable: ok=%v res=%+v", ok, res)
	}
	if st.Stats().CacheHits != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}
}

func TestStationFailurePath(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int32
	st := newStation(t, cache, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			if execs.Add(1) == 1 {
				return runner.Result{Job: job, Err: "no such kernel"}
			}
			return testResult(job)
		},
	})

	job := testJob(0)
	res, err := st.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() || res.Err != "no such kernel" {
		t.Fatalf("failure lost: %+v", res)
	}
	if status, _ := st.Wait(context.Background(), job.Key(), 0); status != StatusFailed {
		t.Fatalf("status = %s, want failed", status)
	}
	if _, ok := cache.Get(job.Key()); ok {
		t.Fatal("failed result written to cache")
	}

	// Failures are never cached, so they must not be sticky either: a
	// resubmission of the failed key runs the job again.
	retry, err := st.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Failed() {
		t.Fatalf("retry did not re-execute: %+v", retry)
	}
	if execs.Load() != 2 {
		t.Fatalf("retry executed %d times total, want 2", execs.Load())
	}
	if s := st.Stats(); s.Failed != 0 || s.Done != 1 {
		t.Fatalf("gauges wrong after retry: %+v", s)
	}
}

// TestStationCapturesPanics pins the serve-path contract runner.runOne
// gives the direct path: a panicking job fails itself, not the process.
func TestStationCapturesPanics(t *testing.T) {
	st := newStation(t, nil, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			panic("poison job")
		},
	})
	res, err := st.Do(context.Background(), testJob(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() || !strings.Contains(res.Err, "poison job") {
		t.Fatalf("panic not captured: %+v", res)
	}
}

// TestStationCloseUnblocksQueuedWaiters: after Close, every submitted
// job is terminal — a queued job the workers never reached is failed,
// so no Do or HTTP poller hangs forever.
func TestStationCloseUnblocksQueuedWaiters(t *testing.T) {
	release := make(chan struct{})
	st := newStation(t, nil, StationConfig{
		Workers:    1,
		QueueBound: 8,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			<-release
			return testResult(job)
		},
	})
	var keys []runner.JobKey
	for i := 0; i < 3; i++ {
		key, _, err := st.Submit(context.Background(), testJob(i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	close(release)
	st.Close()
	for i, key := range keys {
		if _, ok := st.Result(context.Background(), key); !ok {
			status, _ := st.Wait(context.Background(), key, 0)
			t.Errorf("job %d not terminal after Close (status %s)", i, status)
		}
	}
}

// TestStationSubmitAfterCloseReturnsError is the headline lifecycle
// contract: once Close has run, Submit answers ErrStationClosed in
// bounded time — it must never enqueue a job no worker will dequeue and
// leave Do/HTTP waiters hanging until their context expires.
func TestStationSubmitAfterCloseReturnsError(t *testing.T) {
	st := newStation(t, nil, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			return testResult(job)
		},
	})
	st.Close()
	st.Close() // Close is idempotent

	done := make(chan error, 1)
	go func() {
		_, _, err := st.Submit(context.Background(), testJob(0))
		done <- err
	}()
	select {
	case err := <-done:
		if err != ErrStationClosed {
			t.Fatalf("Submit after Close = %v, want ErrStationClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit after Close hung")
	}
	if _, err := st.Do(context.Background(), testJob(1)); err != ErrStationClosed {
		t.Fatalf("Do after Close = %v, want ErrStationClosed", err)
	}
	if st.Stats().Rejected == 0 {
		t.Fatalf("closed-station rejections not counted: %+v", st.Stats())
	}
}

// TestStationSubmitCloseRace hammers Submit/Do/Status from many
// goroutines while Close runs concurrently (run under -race). The
// invariant: every Submit either returns an error or its key reaches a
// terminal state — nothing hangs, nothing is silently dropped.
func TestStationSubmitCloseRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		st := newStation(t, nil, StationConfig{
			Workers:    2,
			QueueBound: 4,
			Exec: func(ctx context.Context, job runner.Job) runner.Result {
				return testResult(job)
			},
		})
		const submitters = 8
		var wg sync.WaitGroup
		accepted := make([][]runner.JobKey, submitters)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					key, _, err := st.Submit(context.Background(), testJob(g*100+i))
					switch err {
					case nil:
						accepted[g] = append(accepted[g], key)
					case ErrStationClosed, ErrQueueFull:
						// both are legal refusals during the race
					default:
						t.Errorf("unexpected submit error: %v", err)
					}
					st.Wait(context.Background(), key, 0)
				}
			}(g)
		}
		// Close concurrently with the submitters — the race under test.
		closed := make(chan struct{})
		go func() { st.Close(); close(closed) }()
		wg.Wait()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close hung")
		}
		// Every accepted key must be terminal: Result answers (done or
		// failed), with no waiting.
		for g := range accepted {
			for _, key := range accepted[g] {
				if _, ok := st.Result(context.Background(), key); !ok {
					status, _ := st.Wait(context.Background(), key, 0)
					t.Fatalf("accepted key %s not terminal after Close (status %q)", key, status)
				}
			}
		}
	}
}

// TestStationDoUnblocksOnConcurrentClose: a Do waiter whose job was
// accepted but never run gets a failed result when Close drains the
// queue, not a context-deadline hang.
func TestStationDoUnblocksOnConcurrentClose(t *testing.T) {
	block := make(chan struct{})
	st := newStation(t, nil, StationConfig{
		Workers:    1,
		QueueBound: 8,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			<-block
			return testResult(job)
		},
	})
	// Job 0 occupies the worker; job 1 sits in the queue.
	if _, _, err := st.Submit(context.Background(), testJob(0)); err != nil {
		t.Fatal(err)
	}
	results := make(chan runner.Result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := st.Do(ctx, testJob(1))
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		results <- res
	}()
	// Wait until the queued job is registered, then close: worker 0 is
	// blocked, so job 1 must be failed by the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, ok := st.Wait(context.Background(), testJob(1).Key(), 0); ok && status == StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job never registered")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	st.Close()
	select {
	case res := <-results:
		// Either outcome is legal depending on who won the drain race —
		// the worker (success) or Close (failed) — but Do must return.
		_ = res
	case <-time.After(10 * time.Second):
		t.Fatal("Do waiter hung across Close")
	}
}

// TestStationRealExecute runs one genuinely simulated tiny job through
// the full station+cache stack and proves the warm path returns
// identical metrics without re-simulating.
func TestStationRealExecute(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newStation(t, cache, StationConfig{Workers: 2})

	job := runner.Job{
		Kind: runner.KindDynamic, Arch: "GF106", Kernel: "copy", Seed: 42,
		Options: runner.Options{TestScale: true},
	}
	cold, err := st.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Failed() {
		t.Fatalf("cold run failed: %s", cold.Err)
	}

	// A fresh station sharing the cache dir answers warm from disk.
	st2 := newStation(t, cache, StationConfig{
		Workers: 1,
		Exec: func(ctx context.Context, job runner.Job) runner.Result {
			t.Error("warm run re-simulated")
			return runner.Result{Job: job, Err: "unreachable"}
		},
	})
	warm, err := st2.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Metrics) != len(cold.Metrics) {
		t.Fatalf("metric count drifted: %d vs %d", len(warm.Metrics), len(cold.Metrics))
	}
	for i := range cold.Metrics {
		if warm.Metrics[i] != cold.Metrics[i] {
			t.Fatalf("metric %d drifted: %+v vs %+v", i, warm.Metrics[i], cold.Metrics[i])
		}
	}
}

// TestStationKeepsNoSimulator: a finished state keeps what goes on the
// wire, not the Payload (for a dynamic job, the device and tracker it ran
// on), so a station's live heap grows with the keys it has served by a
// few KiB each, not by a simulator each. Each job's Payload here is a
// fresh 256 KiB, the weight of a small simulator.
func TestStationKeepsNoSimulator(t *testing.T) {
	st := newStation(t, nil, StationConfig{Workers: 2, Exec: func(_ context.Context, job runner.Job) runner.Result {
		res := testResult(job)
		res.Payload = make([]byte, 256<<10)
		return res
	}})
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const n = 64
	before := liveHeap()
	for i := range n {
		if res, err := st.Do(context.Background(), testJob(i)); err != nil || res.Failed() {
			t.Fatalf("job %d: %v %s", i, err, res.Err)
		}
	}
	per := (liveHeap() - before) / n
	if per > 8<<10 {
		t.Fatalf("live heap grew %d bytes per served job over %d jobs; the budget is 8 KiB", per, n)
	}
	t.Logf("live heap grew %d bytes per served job over %d jobs", per, n)
}
