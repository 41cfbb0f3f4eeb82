package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/kernels"
	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/sched"
	"gpulat/internal/service"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// params are one experiment's knobs: a command fills them from its
// flags, the suite from suiteParams.
type params struct {
	arch, archs, kernel, strides, footprints string
	// archName is arch's own configuration name, as reports print it;
	// runExperiment resolves it once the jobs have run.
	archName                            string
	accesses, vertices, cycles, buckets int
	seed                                uint64
	mshrs, warps                        []int
	loads                               []float64
	// synthOnly limits ablate-dram to its synthetic-traffic half.
	synthOnly, detect, csv, chart bool
	// announce names the one job on stderr instead of per-job progress.
	announce bool
	workers  *int // nil: one worker
	cache    cacheOpts
}

// experiment declares one paper result once: the job grid its command,
// bench-suite and submit -suite all run, and how the command renders
// the results. Renders read Result.Metrics and the job spec, so a
// cache-served result prints like a fresh one; only fig1/fig2 read the
// run itself, for its per-bucket reports.
type experiment struct {
	name    string
	section string                               // suite label; "" keeps the entry out of the suite
	flags   func(fs *flag.FlagSet, p *params)    // the command's flags and fixed values; nil: suite only
	suite   func(p *params)                      // the suite's values where they differ from the command's
	jobs    func(p params) ([]runner.Job, error) // the only place the entry's grid is built
	render  func(p params, set *runner.ResultSet, w io.Writer) error
}

// experiments lists every paper result in suite order.
var experiments = []experiment{
	{
		name: "table1", section: "table1",
		flags: func(fs *flag.FlagSet, p *params) {
			fs.IntVar(&p.accesses, "accesses", 256, "timed loads per measurement point")
			fs.StringVar(&p.archs, "archs", "GT200,GF106,GK104,GM107", "comma-separated presets")
			p.workers = jobsFlag(fs)
		},
		jobs: func(p params) ([]runner.Job, error) {
			var archs []string
			for _, a := range strings.Split(p.archs, ",") {
				archs = append(archs, strings.TrimSpace(a))
			}
			return runner.Grid{Kind: runner.KindStatic, Archs: archs,
				Variants: []runner.Options{{Accesses: p.accesses}}}.Jobs(), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			var rows []core.StaticResult
			for i := range set.Results {
				r := &set.Results[i]
				cfg, err := config.ByNameOrFile(r.Job.Arch)
				if err != nil {
					return err
				}
				rows = append(rows, core.StaticResult{Arch: cfg.Name,
					L1: metric(r, "l1_cycles"), L2: metric(r, "l2_cycles"), DRAM: metric(r, "dram_cycles"),
					L1IsLocalOnly: !cfg.SM.L1Enabled && cfg.SM.L1LocalEnabled})
			}
			fmt.Fprint(w, "Table I — latencies of memory loads through the global memory pipeline\n",
				"(simulated reproduction; paper values: GT200 DRAM 440, GF106 45/310/685,\n",
				" GK104 30/175/300, GM107 194/350)\n\n")
			core.TableI(w, rows)
			return nil
		},
	},
	{
		name: "sweep",
		flags: func(fs *flag.FlagSet, p *params) {
			fs.StringVar(&p.arch, "arch", "GF106", "architecture preset")
			fs.StringVar(&p.strides, "strides", "128,256,512,1024", "strides in bytes")
			fs.StringVar(&p.footprints, "footprints", "8192,16384,32768,65536,131072,262144,524288,1048576,4194304", "footprints in bytes")
			fs.IntVar(&p.accesses, "accesses", 128, "timed loads per point")
			fs.BoolVar(&p.detect, "detect", false, "detect hierarchy-level plateaus instead of raw CSV")
			p.workers, p.cache = jobsFlag(fs), cacheFlags(fs)
		},
		jobs: func(p params) ([]runner.Job, error) {
			strides, err := parseU32List(p.strides)
			if err != nil {
				return nil, err
			}
			footprints, err := parseU32List(p.footprints)
			if err != nil {
				return nil, err
			}
			// One chase job per surface cell, stride-major like core.Sweep,
			// which also skips a footprint smaller than its stride.
			var cells []runner.Options
			for _, stride := range strides {
				for _, fp := range footprints {
					if fp >= stride {
						cells = append(cells, runner.Options{Label: fmt.Sprintf("s%d/f%d", stride, fp),
							Stride: stride, Footprint: fp, Accesses: p.accesses})
					}
				}
			}
			if len(cells) == 0 {
				return nil, nil // an empty surface, not an error
			}
			return runner.Grid{Kind: runner.KindChase, Archs: []string{p.arch}, Variants: cells}.Jobs(), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			if !p.detect {
				fmt.Fprintln(w, "arch,stride,footprint,mean_latency")
			}
			var points []core.SweepPoint
			for i := range set.Results {
				r := &set.Results[i]
				points = append(points, core.SweepPoint{Stride: r.Job.Options.Stride,
					Footprint: r.Job.Options.Footprint, MeanLat: metric(r, "mean_lat")})
				if !p.detect {
					fmt.Fprintf(w, "%s,%d,%d,%.1f\n", p.archName, r.Job.Options.Stride, r.Job.Options.Footprint, metric(r, "mean_lat"))
				}
			}
			if p.detect && len(points) > 0 {
				strides, _ := parseU32List(p.strides) // jobs parsed it already
				for _, stride := range strides {
					core.RenderLevels(w, p.archName, stride, core.DetectLevels(points, stride, 0.08))
				}
			}
			return nil
		},
	},
	// Figures 1 and 2 share one instrumented run; the suite runs it once.
	{name: "fig1", section: "fig1+fig2", flags: figFlags, jobs: figJobs, render: figRender(false)},
	{name: "fig2", flags: figFlags, jobs: figJobs, render: figRender(true)},
	{
		// §III "other workloads": the per-kernel breakdowns.
		name: "workloads", section: "workloads",
		suite: func(p *params) { p.arch = "GF100" },
		jobs: func(p params) ([]runner.Job, error) {
			return fixedGrid(runner.KindDynamic, p.arch, 7,
				[]string{"vecadd", "spmv", "transpose", "histogram", "stencil2d", "reduce"}, nil), nil
		},
	},
	{
		// Two views: synthetic traffic near the saturation knee via the
		// memory-subsystem testbench — the controlled latency measurement
		// — and the end-to-end workload, where the scheduler matters only
		// when DRAM is the bottleneck.
		name: "ablate-dram", section: "ablate-dram",
		flags: ablationFlags,
		suite: func(p *params) { p.synthOnly = true },
		jobs: func(p params) ([]runner.Job, error) {
			names := config.DRAMSchedNames()
			jobs := fixedGrid(runner.KindLoaded, p.arch, 1, nil, variants(names, "%s", func(o *runner.Options, s string) {
				o.OfferedLoad, o.Cycles, o.Overrides.DRAMSched = 0.04, 30_000, s
			}))
			if p.synthOnly {
				return jobs, nil
			}
			return append(jobs, fixedGrid(runner.KindDynamic, p.arch, 0, []string{p.kernel},
				variants(names, "%s", func(o *runner.Options, s string) { o.Vertices, o.Overrides.DRAMSched = p.vertices, s }))...), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			n := len(config.DRAMSchedNames())
			fmt.Fprintf(w, "DRAM scheduler ablation — synthetic random traffic near saturation on %s\n", p.arch)
			metricTable(w, set.Results[:n], "scheduler,mean lat,p99 lat,achieved/port", "mean_lat", "p99_lat", "achieved_load")
			if p.synthOnly {
				return nil
			}
			fmt.Fprintf(w, "\nDRAM scheduler ablation — %s on %s\n", p.kernel, p.arch)
			metricTable(w, set.Results[n:], "scheduler,cycles,IPC,mean load lat,p99 load lat", "cycles", "ipc", "load_lat_mean", "load_lat_p99")
			return nil
		},
	},
	{
		name: "ablate-sched", section: "ablate-sched",
		flags: ablationFlags,
		jobs: func(p params) ([]runner.Job, error) {
			return fixedGrid(runner.KindDynamic, p.arch, 0, []string{p.kernel},
				variants(config.WarpSchedNames(), "%s", func(o *runner.Options, s string) { o.Vertices, o.Overrides.WarpSched = p.vertices, s })), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			fmt.Fprintf(w, "Warp scheduler ablation — %s on %s\n", p.kernel, p.arch)
			metricTable(w, set.Results, "scheduler,cycles,IPC,exposed%,loads>50% exposed", "cycles", "ipc", "exposed_pct", "mostly_exposed_pct")
			return nil
		},
	},
	{
		name: "ablate-mshr", section: "ablate-mshr",
		flags: func(fs *flag.FlagSet, p *params) { ablationFlags(fs, p); p.mshrs = []int{4, 8, 16, 32, 64} },
		suite: func(p *params) { p.mshrs = []int{4, 16, 64} },
		jobs: func(p params) ([]runner.Job, error) {
			return fixedGrid(runner.KindDynamic, p.arch, 0, []string{p.kernel},
				variants(p.mshrs, "mshr=%d", func(o *runner.Options, n int) { o.Vertices, o.Overrides.L1MSHRs = p.vertices, n })), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			fmt.Fprintf(w, "L1 MSHR ablation — %s on %s\n", p.kernel, p.arch)
			metricTable(w, set.Results, "L1 MSHRs,cycles,IPC,mean load lat,p99 load lat", "cycles", "ipc", "load_lat_mean", "load_lat_p99")
			return nil
		},
	},
	{
		// Latency hiding vs occupancy.
		name: "ablate-occupancy", section: "ablate-occupancy",
		flags: func(fs *flag.FlagSet, p *params) {
			fs.StringVar(&p.arch, "arch", "GF100", "architecture preset")
			fs.IntVar(&p.vertices, "vertices", 1<<13, "BFS graph size")
			p.workers, p.warps = jobsFlag(fs), []int{4, 8, 16, 32, 48}
		},
		suite: func(p *params) { p.warps = []int{4, 16, 48} },
		jobs: func(p params) ([]runner.Job, error) {
			return fixedGrid(runner.KindOccupancy, p.arch, 0, nil,
				variants(p.warps, "warps=%d", func(o *runner.Options, n int) { o.WarpLimit, o.Vertices = n, p.vertices })), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			var points []core.OccupancyPoint
			for i := range set.Results {
				r := &set.Results[i]
				points = append(points, core.OccupancyPoint{MaxWarps: r.Job.Options.WarpLimit,
					Cycles: uint64(metric(r, "cycles")), IPC: metric(r, "ipc"),
					ExposedPct: metric(r, "exposed_pct"), MeanLoadLatency: metric(r, "load_lat_mean")})
			}
			core.RenderOccupancy(w, "bfs", p.archName, points)
			return nil
		},
	},
	{
		// Load curve: idle → saturated.
		name: "load-curve", section: "load-curve",
		flags: func(fs *flag.FlagSet, p *params) {
			fs.StringVar(&p.arch, "arch", "GF100", "architecture preset")
			fs.IntVar(&p.cycles, "cycles", 50_000, "measurement cycles per point")
			p.workers, p.loads = jobsFlag(fs), []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4}
		},
		suite: func(p *params) { p.loads = []float64{0.005, 0.02, 0.1, 0.4} },
		jobs: func(p params) ([]runner.Job, error) {
			return fixedGrid(runner.KindLoaded, p.arch, 1, nil,
				variants(p.loads, "load=%g", func(o *runner.Options, load float64) { o.OfferedLoad, o.Cycles = load, p.cycles })), nil
		},
		render: func(p params, set *runner.ResultSet, w io.Writer) error {
			var points []core.LoadedPoint
			for i := range set.Results {
				r := &set.Results[i]
				points = append(points, core.LoadedPoint{OfferedLoad: metric(r, "offered_load"),
					AchievedLoad: metric(r, "achieved_load"), MeanLatency: metric(r, "mean_lat"),
					P99Latency: metric(r, "p99_lat"), Completed: uint64(metric(r, "completed"))})
			}
			core.RenderLoadedCurve(w, p.archName, points)
			return nil
		},
	},
}

// runExperiment is every experiment command: parse e's flags, run its
// grid, render to w.
func runExperiment(e experiment, args []string, w io.Writer) error {
	fs := newFlags(e.name)
	var p params
	e.flags(fs, &p)
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	exec, err := p.cache.exec()
	if err != nil {
		return err
	}
	jobs, err := e.jobs(p)
	if err != nil {
		return err
	}
	workers := 1
	if p.workers != nil {
		workers = *p.workers
	}
	if p.announce {
		fmt.Fprintf(os.Stderr, "running %s on %s...\n", p.kernel, p.arch)
	}
	set, err := runJobs(jobs, workers, !p.announce, *engine, exec)
	if err != nil {
		return err
	}
	if cfg, err := config.ByNameOrFile(p.arch); err == nil {
		p.archName = cfg.Name
	}
	return e.render(p, set, w)
}

// workloadFlags registers the flags that pick one workload on one
// preset; kernelUsage describes -kernel.
func workloadFlags(fs *flag.FlagSet, p *params, kernelUsage string) {
	fs.StringVar(&p.arch, "arch", "GF100", "architecture preset")
	fs.StringVar(&p.kernel, "kernel", "bfs", kernelUsage)
	fs.IntVar(&p.vertices, "vertices", 1<<13, "BFS graph size")
}

func ablationFlags(fs *flag.FlagSet, p *params) {
	workloadFlags(fs, p, "workload")
	p.workers = jobsFlag(fs)
}

// figFlags are fig1's and fig2's flags; their one job takes no -j.
func figFlags(fs *flag.FlagSet, p *params) {
	workloadFlags(fs, p, "workload (bfs or a catalog kernel)")
	fs.IntVar(&p.buckets, "buckets", 48, "latency buckets")
	fs.Uint64Var(&p.seed, "seed", 42, "input seed")
	fs.BoolVar(&p.csv, "csv", false, "emit CSV instead of a table")
	fs.BoolVar(&p.chart, "chart", false, "draw an ASCII stacked-bar chart like the paper's figure")
	p.announce = true
}

func figJobs(p params) ([]runner.Job, error) {
	jobs := runner.Grid{Kind: runner.KindDynamic, Archs: []string{p.arch}, Kernels: []string{p.kernel},
		Variants: []runner.Options{{Vertices: p.vertices}}}.Jobs()
	// Honor the seed verbatim, even 0 (a zero Options.Seed means unpinned).
	jobs[0].Seed = p.seed
	return jobs, nil
}

// figRender draws Figure 1's stage breakdown or, with exposure, Figure
// 2's hidden/exposed split: per-bucket reports of the run itself.
func figRender(exposure bool) func(p params, set *runner.ResultSet, w io.Writer) error {
	return func(p params, set *runner.ResultSet, w io.Writer) error {
		res := set.Results[0].Payload.(*core.DynamicResult)
		var rep interface {
			Render(io.Writer)
			RenderCSV(io.Writer)
			RenderChart(io.Writer, int)
		}
		if exposure {
			rep = res.Exposure(p.buckets)
		} else {
			rep = res.Breakdown(p.buckets)
		}
		switch {
		case p.chart:
			rep.RenderChart(w, 25)
		case p.csv:
			rep.RenderCSV(w)
		default:
			rep.Render(w)
		}
		return nil
	}
}

// fixedGrid expands a grid on one preset whose jobs all take the seed
// base (0: the default), so every variant sees the same input.
func fixedGrid(kind runner.Kind, arch string, base uint64, kernels []string, variants []runner.Options) []runner.Job {
	return runner.Grid{Kind: kind, Archs: []string{arch}, Kernels: kernels, Variants: variants,
		BaseSeed: base, FixedSeed: true}.Jobs()
}

// variants returns one option set per value, labelled by the format
// label and filled in by set.
func variants[T any](values []T, label string, set func(o *runner.Options, v T)) []runner.Options {
	out := make([]runner.Options, len(values))
	for i, v := range values {
		out[i].Label = fmt.Sprintf(label, v)
		set(&out[i], v)
	}
	return out
}

// metricTable renders one row per result: the variant's value (its
// label without a "knob=" prefix), then the named metrics, cycles as
// integers and IPC and achieved load to three places.
func metricTable(w io.Writer, results []runner.Result, header string, names ...string) {
	tb := stats.NewTable(strings.Split(header, ",")...)
	for i := range results {
		r := &results[i]
		label := r.Job.Options.Label
		row := []any{label[strings.LastIndex(label, "=")+1:]}
		for _, name := range names {
			switch v := metric(r, name); name {
			case "cycles":
				row = append(row, uint64(v))
			case "ipc", "achieved_load":
				row = append(row, fmt.Sprintf("%.3f", v))
			default:
				row = append(row, v)
			}
		}
		tb.AddRow(row...)
	}
	tb.Render(w)
}

// metric reads a result's metric; a missing one reads NaN, as the run
// recorded it (Result metrics drop non-finite values).
func metric(r *runner.Result, name string) float64 {
	if v, ok := r.Metric(name); ok {
		return v
	}
	return math.NaN()
}

func cmdSimRun(args []string) error {
	fs := newFlags("simrun")
	var p params
	fs.StringVar(&p.arch, "arch", "GF100", "architecture preset (or file:<path>)")
	fs.StringVar(&p.kernel, "kernel", "vecadd", "workload")
	fs.IntVar(&p.vertices, "vertices", 1<<13, "BFS graph size")
	verbose := fs.Bool("v", false, "dump per-SM and per-partition counters")
	traceSim := fs.String("trace-sim", "",
		"write a Prometheus text exposition of engine wake/skip and per-kernel dispatch/retire counters to this file after the run (\"-\" for stdout)")
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := runWorkload(p, *engine)
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
	var p params
	workloadFlags(fs, &p, "workload")
	engine := engineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := runWorkload(p, *engine, core.KeepRecords)
	if err != nil {
		return err
	}
	return core.WriteRecordsCSV(os.Stdout, res.Tracker)
}

// runWorkload runs p's workload straight on one device, not through the
// runner, so simrun and export keep the whole run: its device counters
// and, under opts' core.KeepRecords, every load record. The -engine
// selection overrides the config's.
func runWorkload(p params, engine string, opts ...core.TrackerOption) (*core.DynamicResult, error) {
	cfg, err := config.ByNameOrFile(p.arch)
	if err != nil {
		return nil, err
	}
	if engine != "" {
		if cfg.Engine, err = sim.ParseEngine(engine); err != nil {
			return nil, usagef("%v", err)
		}
	}
	return runner.RunWorkload(cfg, runner.Job{Kind: runner.KindDynamic, Arch: p.arch, Kernel: p.kernel,
		Seed: 42, Options: runner.Options{Vertices: p.vertices}}, opts...)
}

func cmdConfig(args []string) error {
	fs := newFlags("config")
	arch := fs.String("arch", "GF100", "architecture preset (or file:<path>)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, err := config.ByNameOrFile(*arch)
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
	fmt.Println("warp schedulers:", defaultFirst(config.WarpSchedNames()))
	fmt.Println("DRAM schedulers:", defaultFirst(config.DRAMSchedNames()))
	fmt.Println("block placement: " + strings.Join(sched.PlacementNames(), ", ") +
		" (corun streams; shared is the default)")
	return nil
}

// defaultFirst lists names whose first is the default.
func defaultFirst(names []string) string {
	return names[0] + " (default), " + strings.Join(names[1:], ", ")
}
