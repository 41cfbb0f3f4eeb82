package main

// repro_grid: the run the paper's reader makes — the whole reproduction
// grid through the parallel runner at Workers = nproc, default engine,
// no cache, fresh state every pass. It is the only workload where
// co-running simulations contend (GC, memory bandwidth), so it tells
// whether a layer's gain survives into the user's wait.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"gpulat/internal/core"
	"gpulat/internal/runner"
)

// tableI is the paper's Table I (cycles) with the tolerances of the
// repository's own calibration test (TestStaticMatchesTableI). It is the
// only committed reference: Figures 1-2 have none.
var tableI = []struct {
	arch, metric string
	want, tol    float64
}{
	{"GF106", "l1_cycles", 45, 3}, {"GF106", "l2_cycles", 310, 10}, {"GF106", "dram_cycles", 685, 20},
	{"GT200", "dram_cycles", 440, 15},
	{"GK104", "l1_cycles", 30, 3}, {"GK104", "l2_cycles", 175, 8}, {"GK104", "dram_cycles", 300, 12},
	{"GM107", "l2_cycles", 194, 8}, {"GM107", "dram_cycles", 350, 12},
}

// tableIError returns the largest relative error, in percent, over the
// nine Table I cells, given a lookup of measured cells; cells outside
// the calibration tolerance are returned as failures.
func tableIError(cell func(arch, metric string) (float64, bool)) (maxErrPct float64, failures []string) {
	for _, c := range tableI {
		got, ok := cell(c.arch, c.metric)
		if !ok {
			failures = append(failures, fmt.Sprintf("Table I: %s %s missing", c.arch, c.metric))
			continue
		}
		maxErrPct = max(maxErrPct, 100*math.Abs(got-c.want)/c.want)
		if math.Abs(got-c.want) > c.tol {
			failures = append(failures, fmt.Sprintf("Table I: %s %s = %.1f, paper %.0f±%.0f", c.arch, c.metric, got, c.want, c.tol))
		}
	}
	return maxErrPct, failures
}

type gridWorkload struct {
	env  *env
	jobs []runner.Job
	// oracle holds Table I measured by direct core.MeasureStatic calls
	// during set-up; the runner's static jobs must report the same.
	oracle map[string]core.StaticResult

	// cells holds the last pass's Table I cells, by arch and metric. The
	// result set itself is dropped after each pass: it retains every
	// simulated device, and keeping two alive would double peak_rss_mb.
	cells    map[string]float64
	failures []string

	// Traced-pass accumulations.
	jobMS             map[runner.Kind][]float64
	jobTime, passTime time.Duration
	counters          devCounters
}

func (w *gridWorkload) engines() string { return "event" }

func (w *gridWorkload) setup() error {
	w.jobs = gridJobs(w.env.seed)
	if w.env.smoke {
		w.jobs = smokeGrid(w.jobs)
	}
	w.oracle = map[string]core.StaticResult{}
	for _, j := range w.jobs {
		if j.Kind != runner.KindStatic {
			continue
		}
		opt := core.DefaultStaticOptions()
		opt.Accesses = j.Options.Accesses
		sr, err := core.MeasureStatic(mustConfig(j.Arch), opt)
		if err != nil {
			return err
		}
		w.oracle[j.Arch] = sr
	}
	w.jobMS = map[runner.Kind][]float64{}
	return nil
}

// smokeGrid shrinks every section to the CLI's -quick scale.
func smokeGrid(jobs []runner.Job) []runner.Job {
	for i := range jobs {
		o := &jobs[i].Options
		o.TestScale, o.Vertices = true, 1<<9
		if o.Accesses > 0 {
			o.Accesses = 48
		}
		if jobs[i].Kind == runner.KindLoaded {
			o.Cycles = 8_000
		}
	}
	return jobs
}

func (w *gridWorkload) teardown() {}

func (w *gridWorkload) prepare(*tracer) error { return nil }

func (w *gridWorkload) pass(tr *tracer, root int) passResult {
	r := &runner.Runner{Workers: w.env.nproc}
	pr := passResult{attempted: len(w.jobs)}
	sp := tr.start("runner.run", root, "")
	if tr != nil {
		// The only hook the runner offers from outside: one span per
		// job, keyed by the job's content key.
		r.Exec = func(ctx context.Context, job runner.Job) runner.Result {
			js := tr.start("runner.job."+string(job.Kind), sp, string(job.Key()))
			defer tr.end(js)
			return runner.Execute(ctx, job)
		}
	}
	t0 := time.Now()
	set, err := r.Run(context.Background(), w.jobs)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		pr.failed = len(w.jobs)
		w.failures = append(w.failures, err.Error())
		return pr
	}
	for i := range set.Results {
		res := &set.Results[i]
		if res.Failed() {
			pr.failed++
			w.failures = append(w.failures, res.Job.Name()+": "+res.Err)
			continue
		}
		pr.jobs++
		if tr != nil {
			w.jobMS[res.Job.Kind] = append(w.jobMS[res.Job.Kind], res.Elapsed.Seconds()*1000)
			if dr, ok := res.Payload.(*core.DynamicResult); ok {
				w.counters.add(dr.Device)
			}
		}
	}
	// The caller of Runner.Run blocks until the whole grid is done: that
	// call is the request.
	pr.ops = []float64{wall.Seconds() * 1000}
	if tr != nil {
		w.jobTime += set.TotalElapsed()
		w.passTime += wall
	}
	// The exports are what the user keeps, and they are byte-identical
	// for identical jobs, so their hash is the pass's digest.
	sp = tr.start("runner.export", root, "")
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err == nil {
		err = set.WriteCSV(&buf)
	}
	tr.end(sp)
	pr.digest = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	w.cells = map[string]float64{}
	for i := range set.Results {
		if r := &set.Results[i]; r.Job.Kind == runner.KindStatic {
			for _, m := range r.Metrics {
				w.cells[r.Job.Arch+"/"+m.Name] = m.Value
			}
		}
	}
	return pr
}

// cell looks up a Table I cell in the last pass's static results.
func (w *gridWorkload) cell(arch, metric string) (float64, bool) {
	v, ok := w.cells[arch+"/"+metric]
	return v, ok
}

func (w *gridWorkload) verify() (int, []string) {
	failures := w.failures
	if w.cells == nil {
		return 1, append(failures, "no pass completed")
	}
	errPct, bad := tableIError(w.cell)
	if !w.env.smoke { // smoke-scale chases are too short to calibrate
		failures = append(failures, bad...)
	}
	fmt.Printf("info: table1_max_err_pct %.6f (simulated vs paper Table I, nine cells)\n", errPct)
	// The runner's static jobs against direct calls into core.
	checks := len(tableI)
	for arch, sr := range w.oracle {
		for metric, want := range map[string]float64{"l1_cycles": sr.L1, "l2_cycles": sr.L2, "dram_cycles": sr.DRAM} {
			if math.IsNaN(want) {
				continue
			}
			checks++
			if got, ok := w.cell(arch, metric); !ok || got != want {
				failures = append(failures, fmt.Sprintf("runner %s %s = %v, direct core.MeasureStatic %v", arch, metric, got, want))
			}
		}
	}
	return checks, failures
}

func (w *gridWorkload) layers(_ []span, set func(string, float64)) {
	w.counters.report(set)
	for kind, name := range map[runner.Kind]string{
		runner.KindStatic: "static", runner.KindDynamic: "dynamic",
		runner.KindLoaded: "loaded", runner.KindOccupancy: "occupancy",
	} {
		set("runner.job_ms."+name, median(w.jobMS[kind]))
	}
	if w.passTime > 0 {
		set("runner.parallel_eff", w.jobTime.Seconds()/(w.passTime.Seconds()*float64(w.env.nproc)))
	}
}
