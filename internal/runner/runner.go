// Package runner is the parallel experiment-execution subsystem: every
// sweep and ablation in the reproduction is expressed as a grid of
// independent Jobs, expanded deterministically (including per-job
// seeding), executed on a bounded worker pool, and aggregated into a
// ResultSet whose exports are byte-identical regardless of worker count.
// It is the seam future scaling work (sharded sweeps, multi-backend,
// remote workers) plugs into.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Kind selects the experiment a Job runs.
type Kind string

const (
	// KindDynamic runs an instrumented workload (Figures 1–2, the
	// scheduler/MSHR ablations, per-workload breakdowns).
	KindDynamic Kind = "dynamic"
	// KindStatic measures one Table I row with the pointer chase.
	KindStatic Kind = "static"
	// KindChase measures one stride×footprint pointer-chase point.
	KindChase Kind = "chase"
	// KindLoaded measures memory-system latency at one offered load.
	KindLoaded Kind = "loaded"
	// KindOccupancy reruns the BFS experiment at one warp-limit point.
	KindOccupancy Kind = "occupancy"
	// KindCoRun co-schedules two catalog workloads on independent
	// streams and reports per-kernel interference metrics.
	KindCoRun Kind = "corun"
)

// Job is one independent experiment execution: an architecture, an
// optional workload, experiment options, and the seed that fixes its
// inputs. Jobs are value types; a fully expanded grid is a []Job.
type Job struct {
	Kind Kind `json:"kind"`
	// Arch is a preset name or "file:<path>" JSON configuration.
	Arch string `json:"arch"`
	// Kernel names the workload for dynamic jobs ("bfs" or a catalog
	// kernel); empty for memory-subsystem experiments.
	Kernel string `json:"kernel,omitempty"`
	// Options carries per-kind parameters and config overrides.
	Options Options `json:"options,omitzero"`
	// Seed fixes the job's inputs. Grid expansion derives it
	// deterministically from the grid's BaseSeed and the job index, so
	// parallel and serial runs produce identical results.
	Seed uint64 `json:"seed"`
	// Engine selects the simulation loop ("tick" or "event"; empty =
	// the default event engine). It is execution machinery rather than
	// an experiment parameter — it must never change results, which
	// TestEngineDeterminismQuickGrid enforces — so it is excluded from
	// exports and job identity.
	Engine string `json:"-"`
}

// Name returns a stable human-readable job identifier.
func (j Job) Name() string {
	s := string(j.Kind) + "/" + j.Arch
	if j.Kernel != "" {
		s += "/" + j.Kernel
	}
	if j.Options.Label != "" {
		s += "/" + j.Options.Label
	}
	return s
}

// ExecFunc runs one job to completion; Execute is the canonical
// implementation. Wrappers layer policy over it — the service package's
// caching executor memoizes by Job.Key — without the Runner knowing.
type ExecFunc func(ctx context.Context, job Job) Result

// Runner executes job lists on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent jobs; <=0 selects GOMAXPROCS.
	Workers int
	// Progress, when set, is called after every job completion (from a
	// single goroutine at a time, in completion order).
	Progress func(ev ProgressEvent)
	// Exec runs one job (nil selects Execute). The service layer injects
	// its content-addressed caching executor here; tests inject blocking
	// or failing stand-ins.
	Exec ExecFunc
}

// ProgressEvent reports one completed job.
type ProgressEvent struct {
	Done, Total int
	Result      *Result
}

// New returns a Runner with the given worker bound (<=0 → GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

// EffectiveWorkers resolves the configured worker bound (<=0 →
// GOMAXPROCS).
func (r *Runner) EffectiveWorkers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the jobs and returns their results in job order — the
// aggregate is independent of worker count and completion order. Job
// failures (including panics) are captured per-result and reported via
// ResultSet.Err; Run itself returns an error only when ctx is canceled
// mid-sweep, together with the partial ResultSet gathered so far.
func (r *Runner) Run(ctx context.Context, jobs []Job) (*ResultSet, error) {
	exec := r.Exec
	if exec == nil {
		exec = Execute
	}
	results := make([]Result, len(jobs))
	done := make([]bool, len(jobs))

	idxCh := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0

	for w := 0; w < r.EffectiveWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res := runOne(ctx, exec, jobs[i])
				res.Index = i
				mu.Lock()
				results[i] = res
				done[i] = true
				completed++
				if r.Progress != nil {
					r.Progress(ProgressEvent{Done: completed, Total: len(jobs), Result: &results[i]})
				}
				mu.Unlock()
			}
		}()
	}

feed:
	for i := range jobs {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		set := &ResultSet{}
		for i, ok := range done {
			if ok {
				set.Results = append(set.Results, results[i])
			}
		}
		return set, fmt.Errorf("runner: sweep canceled after %d/%d jobs: %w",
			len(set.Results), len(jobs), err)
	}
	return &ResultSet{Results: results}, nil
}

// runOne executes a single job, converting panics and context
// cancellation into captured errors and stamping the wall time.
func runOne(ctx context.Context, exec ExecFunc, job Job) (res Result) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res = Result{Job: job, Err: fmt.Sprintf("panic: %v", p)}
		}
		res.Elapsed = time.Since(start)
	}()
	if err := ctx.Err(); err != nil {
		return Result{Job: job, Err: err.Error()}
	}
	return exec(ctx, job)
}
