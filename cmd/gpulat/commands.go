package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/kernels"
	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/sched"
	"gpulat/internal/service"
	"gpulat/internal/stats"
)

// Every experiment command below is a thin shell around internal/runner:
// build a Grid, expand it, execute on the worker pool, render from the
// ordered results. Rendering never depends on completion order, so -j 1
// and -j 8 print identical output.

func cmdTable1(args []string) error {
	fs := newFlags("table1")
	accesses := fs.Int("accesses", 256, "timed loads per measurement point")
	archs := fs.String("archs", "GT200,GF106,GK104,GM107", "comma-separated presets")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var names []string
	for _, a := range strings.Split(*archs, ",") {
		names = append(names, strings.TrimSpace(a))
	}
	grid := runner.Grid{
		Kind:     runner.KindStatic,
		Archs:    names,
		Variants: []runner.Options{{Accesses: *accesses}},
	}
	set, err := runJobs(grid.Jobs(), *jobs, true, *engine)
	if err != nil {
		return err
	}
	var rows []core.StaticResult
	for _, r := range set.Results {
		rows = append(rows, r.Payload.(core.StaticResult))
	}
	fmt.Println("Table I — latencies of memory loads through the global memory pipeline")
	fmt.Println("(simulated reproduction; paper values: GT200 DRAM 440, GF106 45/310/685,")
	fmt.Println(" GK104 30/175/300, GM107 194/350)")
	fmt.Println()
	core.TableI(os.Stdout, rows)
	return nil
}

func cmdSweep(args []string) error {
	fs := newFlags("sweep")
	arch := fs.String("arch", "GF106", "architecture preset")
	strides := fs.String("strides", "128,256,512,1024", "strides in bytes")
	foot := fs.String("footprints", "8192,16384,32768,65536,131072,262144,524288,1048576,4194304", "footprints in bytes")
	accesses := fs.Int("accesses", 128, "timed loads per point")
	detect := fs.Bool("detect", false, "detect hierarchy-level plateaus instead of raw CSV")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	cacheFl := cacheFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	exec, err := cacheFl.exec()
	if err != nil {
		return err
	}

	st, err := parseU32List(*strides)
	if err != nil {
		return err
	}
	fp, err := parseU32List(*foot)
	if err != nil {
		return err
	}
	// One chase job per surface cell, stride-major like the serial sweep.
	var variants []runner.Options
	for _, stride := range st {
		for _, footprint := range fp {
			if footprint < stride {
				continue
			}
			variants = append(variants, runner.Options{
				Label:  fmt.Sprintf("s%d/f%d", stride, footprint),
				Stride: stride, Footprint: footprint, Accesses: *accesses,
			})
		}
	}
	if len(variants) == 0 {
		// Every footprint was smaller than its stride: an empty surface,
		// not an error (core.Sweep skips such cells the same way).
		if !*detect {
			fmt.Println("arch,stride,footprint,mean_latency")
		}
		return nil
	}
	grid := runner.Grid{Kind: runner.KindChase, Archs: []string{*arch}, Variants: variants}
	set, err := runJobsExec(grid.Jobs(), *jobs, true, *engine, exec)
	if err != nil {
		return err
	}
	// Rebuild the surface from metrics rather than the typed payload, so
	// cache-served results (metrics only) render identically.
	var points []core.SweepPoint
	for _, r := range set.Results {
		stride, _ := r.Metric("stride")
		footprint, _ := r.Metric("footprint")
		mean, _ := r.Metric("mean_lat")
		points = append(points, core.SweepPoint{
			Stride: uint32(stride), Footprint: uint32(footprint), MeanLat: mean,
		})
	}
	archName := set.Results[0].Job.Arch
	if cfg, cerr := mustConfig(*arch); cerr == nil {
		archName = cfg.Name
	}
	if *detect {
		for _, stride := range st {
			levels := core.DetectLevels(points, stride, 0.08)
			core.RenderLevels(os.Stdout, archName, stride, levels)
		}
		return nil
	}
	fmt.Println("arch,stride,footprint,mean_latency")
	for _, p := range points {
		fmt.Printf("%s,%d,%d,%.1f\n", archName, p.Stride, p.Footprint, p.MeanLat)
	}
	return nil
}

func cmdFig(args []string, exposure bool) error {
	name := "fig1"
	if exposure {
		name = "fig2"
	}
	fs := newFlags(name)
	arch := fs.String("arch", "GF100", "architecture preset")
	kernel := fs.String("kernel", "bfs", "workload (bfs or a catalog kernel)")
	buckets := fs.Int("buckets", 48, "latency buckets")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	seed := fs.Uint64("seed", 42, "input seed")
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	chart := fs.Bool("chart", false, "draw an ASCII stacked-bar chart like the paper's figure")
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	grid := runner.Grid{
		Kind:     runner.KindDynamic,
		Archs:    []string{*arch},
		Kernels:  []string{*kernel},
		Variants: []runner.Options{{Vertices: *vertices, Buckets: *buckets}},
	}
	jobs := grid.Jobs()
	// Honor the flag verbatim, including -seed 0 (Options.Seed cannot
	// express a literal zero — it means "unpinned" there).
	jobs[0].Seed = *seed
	fmt.Fprintf(os.Stderr, "running %s on %s...\n", *kernel, *arch)
	set, err := runJobs(jobs, 1, false, *engine)
	if err != nil {
		return err
	}
	res := set.Results[0].Payload.(*core.DynamicResult)
	if exposure {
		rep := res.Exposure(*buckets)
		switch {
		case *chart:
			rep.RenderChart(os.Stdout, 25)
		case *csv:
			rep.RenderCSV(os.Stdout)
		default:
			rep.Render(os.Stdout)
		}
		return nil
	}
	rep := res.Breakdown(*buckets)
	switch {
	case *chart:
		rep.RenderChart(os.Stdout, 25)
	case *csv:
		rep.RenderCSV(os.Stdout)
	default:
		rep.Render(os.Stdout)
	}
	return nil
}

// dramSchedVariants builds one option set per DRAM scheduling policy.
func dramSchedVariants(base runner.Options) []runner.Options {
	var out []runner.Options
	for _, sched := range []string{"FR-FCFS", "FR-FCFS-cap", "FCFS"} {
		o := base
		o.Label = sched
		o.Overrides.DRAMSched = sched
		out = append(out, o)
	}
	return out
}

func cmdAblateDRAM(args []string) error {
	fs := newFlags("ablate-dram")
	arch := fs.String("arch", "GF100", "architecture preset")
	kernel := fs.String("kernel", "bfs", "workload")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// Two views: (a) synthetic traffic near the saturation knee via the
	// memory-subsystem testbench — the controlled latency measurement;
	// (b) the end-to-end workload, where the scheduler matters only when
	// DRAM is the bottleneck. Both grids run on one pool.
	synth := runner.Grid{
		Kind:  runner.KindLoaded,
		Archs: []string{*arch},
		Variants: dramSchedVariants(runner.Options{
			OfferedLoad: 0.04, Cycles: 30_000,
		}),
		BaseSeed: 1, FixedSeed: true,
	}
	dyn := runner.Grid{
		Kind:    runner.KindDynamic,
		Archs:   []string{*arch},
		Kernels: []string{*kernel},
		Variants: dramSchedVariants(runner.Options{
			Vertices: *vertices,
		}),
		FixedSeed: true,
	}
	all := append(synth.Jobs(), dyn.Jobs()...)
	set, err := runJobs(all, *jobs, true, *engine)
	if err != nil {
		return err
	}
	nSynth := len(synth.Jobs())

	tbSynth := stats.NewTable("scheduler", "mean lat", "p99 lat", "achieved/port")
	for _, r := range set.Results[:nSynth] {
		p := r.Payload.(core.LoadedPoint)
		tbSynth.AddRow(r.Job.Options.Label, p.MeanLatency, p.P99Latency,
			fmt.Sprintf("%.3f", p.AchievedLoad))
	}
	fmt.Printf("DRAM scheduler ablation — synthetic random traffic near saturation on %s\n", *arch)
	tbSynth.Render(os.Stdout)
	fmt.Println()

	tb := stats.NewTable("scheduler", "cycles", "IPC", "mean load lat", "p99 load lat")
	for _, r := range set.Results[nSynth:] {
		res := r.Payload.(*core.DynamicResult)
		sum := res.LoadSummary()
		tb.AddRow(r.Job.Options.Label, uint64(res.Cycles), fmt.Sprintf("%.3f", res.IPC()),
			sum.Mean, sum.P99)
	}
	fmt.Printf("DRAM scheduler ablation — %s on %s\n", *kernel, *arch)
	tb.Render(os.Stdout)
	return nil
}

func cmdAblateSched(args []string) error {
	fs := newFlags("ablate-sched")
	arch := fs.String("arch", "GF100", "architecture preset")
	kernel := fs.String("kernel", "bfs", "workload")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var variants []runner.Options
	for _, sched := range []string{"LRR", "GTO"} {
		variants = append(variants, runner.Options{
			Label: sched, Vertices: *vertices,
			Overrides: config.Overrides{WarpSched: sched},
		})
	}
	grid := runner.Grid{
		Kind: runner.KindDynamic, Archs: []string{*arch}, Kernels: []string{*kernel},
		Variants: variants, FixedSeed: true,
	}
	set, err := runJobs(grid.Jobs(), *jobs, true, *engine)
	if err != nil {
		return err
	}
	tb := stats.NewTable("scheduler", "cycles", "IPC", "exposed%", "loads>50% exposed")
	for _, r := range set.Results {
		res := r.Payload.(*core.DynamicResult)
		er := res.Exposure(24)
		tb.AddRow(r.Job.Options.Label, uint64(res.Cycles), fmt.Sprintf("%.3f", res.IPC()),
			er.OverallExposedPct(), er.MostlyExposedPct())
	}
	fmt.Printf("Warp scheduler ablation — %s on %s\n", *kernel, *arch)
	tb.Render(os.Stdout)
	return nil
}

func cmdAblateMSHR(args []string) error {
	fs := newFlags("ablate-mshr")
	arch := fs.String("arch", "GF100", "architecture preset")
	kernel := fs.String("kernel", "bfs", "workload")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var variants []runner.Options
	for _, mshrs := range []int{4, 8, 16, 32, 64} {
		variants = append(variants, runner.Options{
			Label: fmt.Sprintf("mshr=%d", mshrs), Vertices: *vertices,
			Overrides: config.Overrides{L1MSHRs: mshrs},
		})
	}
	grid := runner.Grid{
		Kind: runner.KindDynamic, Archs: []string{*arch}, Kernels: []string{*kernel},
		Variants: variants, FixedSeed: true,
	}
	set, err := runJobs(grid.Jobs(), *jobs, true, *engine)
	if err != nil {
		return err
	}
	tb := stats.NewTable("L1 MSHRs", "cycles", "IPC", "mean load lat", "p99 load lat")
	for _, r := range set.Results {
		res := r.Payload.(*core.DynamicResult)
		sum := res.LoadSummary()
		tb.AddRow(r.Job.Options.Overrides.L1MSHRs, uint64(res.Cycles),
			fmt.Sprintf("%.3f", res.IPC()), sum.Mean, sum.P99)
	}
	fmt.Printf("L1 MSHR ablation — %s on %s\n", *kernel, *arch)
	tb.Render(os.Stdout)
	return nil
}

func cmdAblateOccupancy(args []string) error {
	fs := newFlags("ablate-occupancy")
	arch := fs.String("arch", "GF100", "architecture preset")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var variants []runner.Options
	for _, w := range []int{4, 8, 16, 32, 48} {
		variants = append(variants, runner.Options{
			Label: fmt.Sprintf("warps=%d", w), WarpLimit: w, Vertices: *vertices,
		})
	}
	grid := runner.Grid{
		Kind: runner.KindOccupancy, Archs: []string{*arch},
		Variants: variants, FixedSeed: true,
	}
	set, err := runJobs(grid.Jobs(), *jobs, true, *engine)
	if err != nil {
		return err
	}
	var points []core.OccupancyPoint
	for _, r := range set.Results {
		points = append(points, r.Payload.(core.OccupancyPoint))
	}
	cfg, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	core.RenderOccupancy(os.Stdout, "bfs", cfg.Name, points)
	return nil
}

func cmdLoadCurve(args []string) error {
	fs := newFlags("load-curve")
	arch := fs.String("arch", "GF100", "architecture preset")
	cycles := fs.Int("cycles", 50_000, "measurement cycles per point")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var variants []runner.Options
	for _, load := range []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4} {
		variants = append(variants, runner.Options{
			Label: fmt.Sprintf("load=%g", load), OfferedLoad: load, Cycles: *cycles,
		})
	}
	grid := runner.Grid{
		Kind: runner.KindLoaded, Archs: []string{*arch},
		Variants: variants, BaseSeed: 1, FixedSeed: true,
	}
	set, err := runJobs(grid.Jobs(), *jobs, true, *engine)
	if err != nil {
		return err
	}
	var points []core.LoadedPoint
	for _, r := range set.Results {
		points = append(points, r.Payload.(core.LoadedPoint))
	}
	cfg, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	core.RenderLoadedCurve(os.Stdout, cfg.Name, points)
	return nil
}

func cmdSimRun(args []string) error {
	fs := newFlags("simrun")
	arch := fs.String("arch", "GF100", "architecture preset (or file:<path>)")
	kernel := fs.String("kernel", "vecadd", "workload")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	verbose := fs.Bool("v", false, "dump per-SM and per-partition counters")
	traceSim := fs.String("trace-sim", "",
		"write a Prometheus text exposition of engine wake/skip and per-kernel dispatch/retire counters to this file after the run (\"-\" for stdout)")
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	cfg, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	if cfg, err = applyEngineConfig(cfg, *engine); err != nil {
		return err
	}
	job := runner.Job{
		Kind: runner.KindDynamic, Arch: *arch, Kernel: *kernel, Seed: 42,
		Options: runner.Options{Vertices: *vertices},
	}
	res, err := runner.RunWorkload(cfg, job)
	if err != nil {
		return err
	}
	sum := res.LoadSummary()
	fmt.Printf("workload:        %s\n", res.Workload)
	fmt.Printf("architecture:    %s\n", res.Arch)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("kernel launches: %d\n", res.Launches)
	fmt.Printf("instructions:    %d\n", res.Instructions)
	fmt.Printf("IPC:             %.3f\n", res.IPC())
	fmt.Printf("tracked loads:   %d\n", sum.Count)
	fmt.Printf("load latency:    mean %.1f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
		sum.Mean, sum.P50, sum.P90, sum.P99, sum.Max)
	er := res.Exposure(24)
	fmt.Printf("exposed latency: %.1f%% overall; %.1f%% of loads >50%% exposed\n",
		er.OverallExposedPct(), er.MostlyExposedPct())
	if *verbose {
		fmt.Println()
		dumpDeviceStats(res.Device)
	}
	if *traceSim != "" {
		if err := writeSimTrace(*traceSim, res); err != nil {
			return err
		}
	}
	return nil
}

// writeSimTrace exports the finished run's device counters as a
// Prometheus text exposition — the -trace-sim sink. The device is read
// after the simulation completes, so the export can never perturb the
// run it describes.
func writeSimTrace(path string, res *core.DynamicResult) error {
	if res.Device == nil {
		return fmt.Errorf("simrun: no device retained for -trace-sim")
	}
	reg := metrics.NewRegistry()
	res.Device.ExportMetrics(reg)
	if path == "-" {
		fmt.Println()
		_, err := reg.WriteTo(os.Stdout)
		return err
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func cmdExport(args []string) error {
	fs := newFlags("export")
	arch := fs.String("arch", "GF100", "architecture preset")
	kernel := fs.String("kernel", "bfs", "workload")
	vertices := fs.Int("vertices", 1<<13, "BFS graph size")
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	cfg, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	if cfg, err = applyEngineConfig(cfg, *engine); err != nil {
		return err
	}
	job := runner.Job{
		Kind: runner.KindDynamic, Arch: *arch, Kernel: *kernel, Seed: 42,
		Options: runner.Options{Vertices: *vertices},
	}
	res, err := runner.RunWorkload(cfg, job)
	if err != nil {
		return err
	}
	return core.WriteRecordsCSV(os.Stdout, res.Tracker)
}

func cmdConfig(args []string) error {
	fs := newFlags("config")
	arch := fs.String("arch", "GF100", "architecture preset (or file:<path>)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	data, err := config.ToJSON(cfg)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdList(args []string) error {
	fs := newFlags("list")
	jsonOut := fs.Bool("json", false, "emit the machine-readable spec catalog (kernels, archs, engines, schedulers, placements)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut {
		// The same catalog the service exposes at /v1/catalog: clients
		// discover valid job specs from either surface.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(service.Catalog())
	}
	fmt.Println("architectures:")
	for _, a := range config.Names() {
		cfg, ok := config.ByName(a)
		if !ok {
			continue
		}
		fmt.Printf("  %-7s %2d SMs, %d partitions\n", a, cfg.NumSMs, cfg.NumPartitions)
	}
	fmt.Println("workloads: bfs (dynamic analysis),", strings.Join(kernels.CatalogNames(), ", "))
	fmt.Println("engines: event (default; fast-forwards idle cycles), tick (cycle-by-cycle reference)")
	fmt.Println("warp schedulers: LRR (default), GTO")
	fmt.Println("DRAM schedulers: FR-FCFS (default), FR-FCFS-cap, FCFS")
	fmt.Println("block placement: " + strings.Join(sched.PlacementNames(), ", ") +
		" (corun streams; shared is the default)")
	return nil
}
