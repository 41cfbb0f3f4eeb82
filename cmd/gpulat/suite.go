package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gpulat/internal/runner"
)

// suiteJobs assembles the whole paper-reproduction grid: Table I on all
// four generations, Figures 1–2, the "other workloads" breakdowns, the
// three ablations, and the load curve — every experiment the README
// walks through, as one parallel job list. quick shrinks inputs to CI
// smoke size while keeping every section represented.
func suiteJobs(quick bool) []runner.Job {
	accesses := 256
	cycles := 0 // LoadedLatency default (50k)
	vertices := 0
	testScale := false
	if quick {
		accesses = 48
		cycles = 8_000
		vertices = 1 << 9
		testScale = true
	}

	label := func(section string, o runner.Options) runner.Options {
		if o.Label == "" {
			o.Label = section
		} else {
			o.Label = section + "/" + o.Label
		}
		o.TestScale = testScale
		if o.Vertices == 0 {
			o.Vertices = vertices
		}
		return o
	}
	withLabels := func(section string, opts []runner.Options) []runner.Options {
		out := make([]runner.Options, len(opts))
		for i, o := range opts {
			out[i] = label(section, o)
		}
		return out
	}

	var jobs []runner.Job

	// Table I: one static measurement per generation.
	jobs = append(jobs, runner.Grid{
		Kind:     runner.KindStatic,
		Archs:    []string{"GT200", "GF106", "GK104", "GM107"},
		Variants: []runner.Options{label("table1", runner.Options{Accesses: accesses})},
	}.Jobs()...)

	// Figures 1 and 2 share one instrumented BFS run on GF100.
	jobs = append(jobs, runner.Grid{
		Kind:      runner.KindDynamic,
		Archs:     []string{"GF100"},
		Kernels:   []string{"bfs"},
		Variants:  []runner.Options{label("fig1+fig2", runner.Options{})},
		FixedSeed: true,
	}.Jobs()...)

	// §III "other workloads": the per-kernel breakdowns.
	jobs = append(jobs, runner.Grid{
		Kind:     runner.KindDynamic,
		Archs:    []string{"GF100"},
		Kernels:  []string{"vecadd", "spmv", "transpose", "histogram", "stencil2d", "reduce"},
		Variants: []runner.Options{label("workloads", runner.Options{})},
		BaseSeed: 7, FixedSeed: true,
	}.Jobs()...)

	// A1: DRAM scheduler, on synthetic near-saturation traffic.
	jobs = append(jobs, runner.Grid{
		Kind:  runner.KindLoaded,
		Archs: []string{"GF100"},
		Variants: withLabels("ablate-dram",
			dramSchedVariants(runner.Options{OfferedLoad: 0.04, Cycles: 30_000})),
		BaseSeed: 1, FixedSeed: true,
	}.Jobs()...)

	// A2: warp scheduler.
	var schedVariants []runner.Options
	for _, sched := range []string{"LRR", "GTO"} {
		o := runner.Options{Label: sched}
		o.Overrides.WarpSched = sched
		schedVariants = append(schedVariants, o)
	}
	jobs = append(jobs, runner.Grid{
		Kind: runner.KindDynamic, Archs: []string{"GF100"}, Kernels: []string{"bfs"},
		Variants: withLabels("ablate-sched", schedVariants), FixedSeed: true,
	}.Jobs()...)

	// A3: L1 MSHR capacity.
	var mshrVariants []runner.Options
	for _, mshrs := range []int{4, 16, 64} {
		o := runner.Options{Label: fmt.Sprintf("mshr=%d", mshrs)}
		o.Overrides.L1MSHRs = mshrs
		mshrVariants = append(mshrVariants, o)
	}
	jobs = append(jobs, runner.Grid{
		Kind: runner.KindDynamic, Archs: []string{"GF100"}, Kernels: []string{"bfs"},
		Variants: withLabels("ablate-mshr", mshrVariants), FixedSeed: true,
	}.Jobs()...)

	// Latency hiding vs occupancy.
	var occVariants []runner.Options
	for _, w := range []int{4, 16, 48} {
		occVariants = append(occVariants, runner.Options{
			Label: fmt.Sprintf("warps=%d", w), WarpLimit: w,
		})
	}
	jobs = append(jobs, runner.Grid{
		Kind: runner.KindOccupancy, Archs: []string{"GF100"},
		Variants: withLabels("ablate-occupancy", occVariants), FixedSeed: true,
	}.Jobs()...)

	// Load curve: idle → saturated.
	var loadVariants []runner.Options
	for _, load := range []float64{0.005, 0.02, 0.1, 0.4} {
		loadVariants = append(loadVariants, runner.Options{
			Label: fmt.Sprintf("load=%g", load), OfferedLoad: load, Cycles: cycles,
		})
	}
	jobs = append(jobs, runner.Grid{
		Kind: runner.KindLoaded, Archs: []string{"GF100"},
		Variants: withLabels("load-curve", loadVariants),
		BaseSeed: 1, FixedSeed: true,
	}.Jobs()...)

	return jobs
}

// cmdBenchSuite runs the whole paper-reproduction grid on the parallel
// runner and prints an aggregate summary; -json/-csv dump the machine-
// readable ResultSet, which is byte-identical for every -j.
func cmdBenchSuite(args []string) error {
	fs := newFlags("bench-suite")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	quick := fs.Bool("quick", false, "CI smoke scale: tiny inputs, every section still covered")
	jsonOut := fs.Bool("json", false, "write the ResultSet as JSON to stdout")
	csvOut := fs.Bool("csv", false, "write the ResultSet as long-form CSV to stdout")
	quiet := fs.Bool("quiet", false, "suppress per-job progress on stderr")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	cacheFl := cacheFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return usagef("bench-suite: -json and -csv are mutually exclusive")
	}
	exec, err := cacheFl.exec()
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench-suite:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench-suite:", err)
			}
		}()
	}

	list := suiteJobs(*quick)
	start := time.Now()
	set, err := runJobsExec(list, *jobs, !*quiet, *engine, exec)
	if err != nil {
		// Partial failures still produce the summary below; hard
		// cancellation aborts.
		if set == nil || len(set.Results) == 0 {
			return err
		}
	}
	wall := time.Since(start)

	switch {
	case *jsonOut:
		if werr := set.WriteJSON(os.Stdout); werr != nil {
			return werr
		}
	case *csvOut:
		if werr := set.WriteCSV(os.Stdout); werr != nil {
			return werr
		}
	default:
		set.SummaryTable().Render(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "bench-suite: %d jobs, wall %s, job-time sum %s, workers %d\n",
		len(set.Results), wall.Round(time.Millisecond),
		set.TotalElapsed().Round(time.Millisecond), runner.New(*jobs).EffectiveWorkers())
	return err
}
