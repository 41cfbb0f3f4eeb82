package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/core"
)

// testGrid is a small but heterogeneous sweep that runs at unit-test
// scale: two real workloads on the 4-SM Fermi preset plus two
// pointer-chase points.
func testGrid() []Job {
	dyn := Grid{
		Kind:     KindDynamic,
		Archs:    []string{"GF106"},
		Kernels:  []string{"vecadd", "histogram"},
		Variants: []Options{{TestScale: true}},
	}
	chase := Grid{
		Kind:  KindChase,
		Archs: []string{"GF106"},
		Variants: []Options{
			{Stride: 128, Footprint: 8192, Accesses: 32},
			{Stride: 256, Footprint: 16384, Accesses: 32},
		},
	}
	return append(dyn.Jobs(), chase.Jobs()...)
}

// TestRunDeterministicAcrossWorkerCounts is the core contract: the same
// job list must produce byte-identical JSON and CSV exports whether it
// runs serially or on eight workers.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testGrid()
	export := func(workers int) (string, string) {
		t.Helper()
		set, err := New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := set.Err(); err != nil {
			t.Fatalf("workers=%d job failures: %v", workers, err)
		}
		var j, c bytes.Buffer
		if err := set.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := set.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := export(1)
	j8, c8 := export(8)
	if j1 != j8 {
		t.Errorf("JSON export differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("CSV export differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", c1, c8)
	}
	if !strings.Contains(c1, "mean_lat") {
		t.Errorf("CSV export missing chase metrics:\n%s", c1)
	}
}

// TestRunJobErrorPropagation checks that one failing job does not abort
// the sweep: the rest complete, the failure is captured per-result, and
// ResultSet.Err aggregates it.
func TestRunJobErrorPropagation(t *testing.T) {
	jobs := Grid{
		Kind:     KindDynamic,
		Archs:    []string{"GF106"},
		Kernels:  []string{"vecadd", "no-such-kernel", "histogram"},
		Variants: []Options{{TestScale: true}},
	}.Jobs()
	set, err := New(4).Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(set.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(set.Results))
	}
	if got := len(set.Failed()); got != 1 {
		t.Fatalf("got %d failed jobs, want 1: %v", got, set.Err())
	}
	bad := set.Failed()[0]
	if bad.Job.Kernel != "no-such-kernel" || !strings.Contains(bad.Err, "unknown workload") {
		t.Fatalf("unexpected failure %+v", bad)
	}
	aggErr := set.Err()
	if aggErr == nil || !strings.Contains(aggErr.Error(), "no-such-kernel") {
		t.Fatalf("aggregate error should name the failed job, got %v", aggErr)
	}
	for _, r := range set.Results {
		if r.Failed() {
			continue
		}
		if _, ok := r.Metric("cycles"); !ok {
			t.Errorf("%s: healthy job missing metrics", r.Job.Name())
		}
		if r.Payload == nil {
			t.Errorf("%s: healthy job missing payload", r.Job.Name())
		}
	}
	// Error messages contain commas ("unknown workload ... [copy gather
	// ...]"); the CSV export must quote them so every row keeps the
	// 8-column shape.
	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(csv.String()), "\n") {
		if strings.Contains(line, "error") && !strings.Contains(line, `"`) {
			t.Errorf("error row not quoted: %s", line)
		}
	}
}

// TestRunContextCancellation cancels a sweep mid-flight and checks that
// Run stops feeding jobs, reports the cancellation, and returns the
// partial results gathered so far.
func TestRunContextCancellation(t *testing.T) {
	const total = 64
	jobs := make([]Job, total)
	for i := range jobs {
		jobs[i] = Job{Kind: KindDynamic, Arch: "GF106", Kernel: "vecadd"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	r := New(2)
	r.Exec = func(ctx context.Context, job Job) Result {
		if executed.Add(1) == 3 {
			cancel()
		}
		if ctx.Err() != nil {
			return Result{Job: job, Err: ctx.Err().Error()}
		}
		return Result{Job: job, Metrics: []Metric{{Name: "ok", Value: 1}}}
	}
	set, err := r.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel: err = %v, want context.Canceled", err)
	}
	if len(set.Results) >= total {
		t.Fatalf("all %d jobs ran despite cancellation", total)
	}
	if int(executed.Load()) >= total {
		t.Fatalf("executor saw all jobs despite cancellation")
	}
}

// TestRunPanicIsCapturedPerJob ensures a panicking job surfaces as a
// captured error rather than tearing down the pool.
func TestRunPanicIsCapturedPerJob(t *testing.T) {
	jobs := []Job{
		{Kind: KindDynamic, Kernel: "a"},
		{Kind: KindDynamic, Kernel: "boom"},
		{Kind: KindDynamic, Kernel: "c"},
	}
	r := New(2)
	r.Exec = func(_ context.Context, job Job) Result {
		if job.Kernel == "boom" {
			panic("kaboom")
		}
		return Result{Job: job}
	}
	set, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(set.Failed()); got != 1 {
		t.Fatalf("got %d failures, want 1", got)
	}
	if !strings.Contains(set.Failed()[0].Err, "kaboom") {
		t.Fatalf("panic message lost: %+v", set.Failed()[0])
	}
}

// TestRunBoundsConcurrency verifies the pool never exceeds Workers
// in-flight jobs.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	jobs := make([]Job, 50)
	var active, peak atomic.Int32
	r := New(workers)
	r.Exec = func(_ context.Context, job Job) Result {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Let other workers pile in before releasing the slot.
		for i := 0; i < 1000; i++ {
			_ = i
		}
		active.Add(-1)
		return Result{Job: job}
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// TestProgressReporting checks the callback fires once per job with
// monotonically complete accounting.
func TestProgressReporting(t *testing.T) {
	jobs := testGrid()[:2]
	var mu sync.Mutex
	var events []ProgressEvent
	r := New(2)
	r.Progress = func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final event %d/%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
}

// TestExecuteRejectsBadInputs covers the executor's validation paths.
func TestExecuteRejectsBadInputs(t *testing.T) {
	cases := []Job{
		{Kind: KindDynamic, Arch: "NoSuchArch", Kernel: "vecadd"},
		{Kind: KindDynamic, Arch: "GF106", Kernel: "no-such-kernel"},
		{Kind: "bogus", Arch: "GF106"},
		{Kind: KindChase, Arch: "GF106"},     // missing stride/footprint
		{Kind: KindLoaded, Arch: "GF106"},    // missing offered load
		{Kind: KindOccupancy, Arch: "GF106"}, // missing warp limit
		{Kind: KindDynamic, Arch: "GF106", Kernel: "vecadd",
			Options: Options{Overrides: config.Overrides{WarpSched: "no-such-policy"}}},
	}
	for _, job := range cases {
		res := Execute(context.Background(), job)
		if !res.Failed() {
			t.Errorf("Execute(%+v) should fail", job)
		}
	}
}

// TestBFSTooFewVerticesIsAnError: a BFS graph attaches four edges per
// new vertex, so both job kinds that build one reject four or fewer
// vertices with an error instead of panicking in the graph generator;
// five is the smallest graph that runs.
func TestBFSTooFewVerticesIsAnError(t *testing.T) {
	for _, job := range []Job{
		{Kind: KindDynamic, Arch: "GF106", Kernel: "bfs", Options: Options{Vertices: 3}},
		{Kind: KindOccupancy, Arch: "GF106", Options: Options{Vertices: 4, WarpLimit: 8}},
	} {
		want := fmt.Sprintf("runner: bfs needs more than 4 vertices, got %d", job.Options.Vertices)
		if res := Execute(context.Background(), job); res.Err != want {
			t.Errorf("%s: error %q, want %q", job.Kind, res.Err, want)
		}
	}
	job := Job{Kind: KindDynamic, Arch: "GF106", Kernel: "bfs", Options: Options{Vertices: 5}}
	if res := Execute(context.Background(), job); res.Failed() {
		t.Errorf("5 vertices: %s", res.Err)
	}
}

// TestDynamicPayloadKeepsNoRecords: a finished dynamic or co-run job's
// payload keeps the per-latency cells its reports read, not a record per
// load, and a dynamic payload's device keeps its counters, not its
// simulator, so a grid held until the sweep ends holds neither every
// job's loads nor its devices: the live heap a finished job retains is
// at most its tracker plus 64 KiB. It logs that heap beside the tracker
// storage the same job holds when run with its records kept.
func TestDynamicPayloadKeepsNoRecords(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	jobs := Grid{Kind: KindDynamic, Archs: []string{"GF106"}, Kernels: []string{"bfs", "spmv", "vecadd"},
		Variants: []Options{{TestScale: true}, {TestScale: true, Label: "again"}}}.Jobs()
	jobs = append(jobs, Grid{Kind: KindCoRun, Archs: []string{"GF106"}, Kernels: []string{"gather"},
		Variants: []Options{{TestScale: true, KernelB: "copy"}}}.Jobs()...)
	before := liveHeap()
	results := make([]Result, len(jobs))
	for i, job := range jobs {
		results[i] = Execute(context.Background(), job)
	}
	per := (liveHeap() - before) / int64(len(jobs))
	var trackers int64
	for i := range results {
		r := &results[i]
		if r.Failed() {
			t.Fatalf("%s: %s", r.Job.Name(), r.Err)
		}
		var tr *core.Tracker
		switch p := r.Payload.(type) {
		case *core.DynamicResult:
			tr = p.Tracker
			if p.Breakdown(8).Requests == 0 || p.Exposure(8).Requests == 0 {
				t.Errorf("%s: the payload's reports are empty", r.Job.Name())
			}
		case *core.CoRunResult:
			tr = p.Tracker
		}
		trackers += int64(tr.Footprint())
		records := 0
		for range tr.All() {
			records++
		}
		if records != 0 || tr.Len() == 0 {
			t.Errorf("%s: the payload's tracker took %d loads and keeps %d load records (%d bytes)", r.Job.Name(), tr.Len(), records, tr.Footprint())
		}
	}
	var full, folded int
	for i, job := range jobs[:3] {
		cfg, err := resolveConfig(job)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := RunWorkload(cfg, job, core.KeepRecords)
		if err != nil {
			t.Fatal(err)
		}
		full += dr.Tracker.Footprint()
		folded += results[i].Payload.(*core.DynamicResult).Tracker.Footprint()
	}
	t.Logf("live heap grew %d bytes per finished job over %d jobs; the trackers hold %d bytes each, %d when they keep their records",
		per, len(jobs), folded/3, full/3)
	if bound := trackers/int64(len(jobs)) + 64<<10; per > bound {
		t.Errorf("a finished job retains %d bytes of live heap, more than its tracker's %d plus 64 KiB: its payload keeps more than counters",
			per, trackers/int64(len(jobs)))
	}
	runtime.KeepAlive(results)
}
