package gpulat

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations the CLI's ablate-* commands run. Each benchmark
// regenerates its experiment end to end (workload generation,
// simulation, measurement) and reports the paper-relevant scalar as a
// custom metric, so `go test -bench=. -benchmem` doubles as the full
// reproduction run.
//
//	BenchmarkTable1StaticLatency/*     — Table I
//	BenchmarkFig1Breakdown             — Figure 1
//	BenchmarkFig2Exposure              — Figure 2
//	BenchmarkOtherWorkloadsBreakdown/* — §III "other workloads"
//	BenchmarkAblationDRAMScheduler/*   — FR-FCFS vs FCFS
//	BenchmarkAblationWarpScheduler/*   — LRR vs GTO
//	BenchmarkAblationMSHR/*            — L1 MSHR capacity
//	BenchmarkRunnerParallelSweep/*     — experiment runner, 1 vs N workers
//	BenchmarkSimulatorThroughput       — simulator speed baseline

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/dram"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
	"gpulat/internal/sm"
)

// staticOpt keeps benchmark iterations affordable while preserving the
// measured plateaus.
func staticOpt() core.StaticOptions {
	opt := core.DefaultStaticOptions()
	opt.Accesses = 128
	return opt
}

// BenchmarkTable1StaticLatency regenerates Table I: one sub-benchmark
// per architecture, reporting the measured per-level latencies as custom
// metrics (cycles).
func BenchmarkTable1StaticLatency(b *testing.B) {
	for _, arch := range []string{"GT200", "GF106", "GK104", "GM107"} {
		b.Run(arch, func(b *testing.B) {
			cfg, _ := config.ByName(arch)
			var res core.StaticResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.MeasureStatic(cfg, staticOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.HasL1() {
				b.ReportMetric(res.L1, "L1-cycles")
			}
			if res.HasL2() {
				b.ReportMetric(res.L2, "L2-cycles")
			}
			b.ReportMetric(res.DRAM, "DRAM-cycles")
		})
	}
}

// bfsExperiment runs the Figure 1/2 workload once.
func bfsExperiment(b *testing.B, cfg gpu.Config, vertices int) *core.DynamicResult {
	b.Helper()
	g := kernels.GenScaleFree(vertices, 4, 42)
	mk, err := kernels.BFS(kernels.BFSConfig{Graph: g, Source: 0, BlockDim: 128})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunDynamicMulti(cfg, mk)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1Breakdown regenerates Figure 1 (BFS latency breakdown on
// GF100), reporting the two key contributors' overall shares.
func BenchmarkFig1Breakdown(b *testing.B) {
	var rep *core.BreakdownReport
	for i := 0; i < b.N; i++ {
		res := bfsExperiment(b, config.GF100(), 1<<13)
		rep = res.Breakdown(48)
	}
	b.ReportMetric(rep.TotalPct(core.StageL1ToICNT), "L1toICNT-pct")
	b.ReportMetric(rep.TotalPct(core.StageDRAMQueue), "DRAMQtoSch-pct")
	b.ReportMetric(float64(rep.Requests), "loads")
}

// BenchmarkFig2Exposure regenerates Figure 2 (exposed vs hidden load
// latency for BFS on GF100).
func BenchmarkFig2Exposure(b *testing.B) {
	var rep *core.ExposureReport
	for i := 0; i < b.N; i++ {
		res := bfsExperiment(b, config.GF100(), 1<<13)
		rep = res.Exposure(24)
	}
	b.ReportMetric(rep.OverallExposedPct(), "exposed-pct")
	b.ReportMetric(rep.MostlyExposedPct(), "loads>50%exposed-pct")
}

// BenchmarkOtherWorkloadsBreakdown backs the paper's §III claim that
// "other workloads similarly showed queueing and arbitration as the two
// key latency contributors".
func BenchmarkOtherWorkloadsBreakdown(b *testing.B) {
	for _, name := range []string{"vecadd", "spmv", "transpose", "histogram", "stencil2d", "reduce"} {
		b.Run(name, func(b *testing.B) {
			var rep *core.BreakdownReport
			for i := 0; i < b.N; i++ {
				wl, err := kernels.NewByName(name, kernels.ScaleExperiment, 7)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunDynamic(config.GF100(), wl)
				if err != nil {
					b.Fatal(err)
				}
				rep = res.Breakdown(48)
			}
			b.ReportMetric(rep.TotalPct(core.StageL1ToICNT), "L1toICNT-pct")
			b.ReportMetric(rep.TotalPct(core.StageDRAMQueue), "DRAMQtoSch-pct")
		})
	}
}

// BenchmarkAblationDRAMScheduler quantifies the paper's remark that
// "request latency could potentially be reduced through usage of a
// different DRAM scheduling algorithm": the memory-subsystem testbench
// drives random traffic near the saturation knee and measures per-load
// latency under each scheduler.
func BenchmarkAblationDRAMScheduler(b *testing.B) {
	for _, sched := range []dram.SchedPolicy{dram.FRFCFS, dram.FRFCFSCap, dram.FCFS} {
		b.Run(sched.String(), func(b *testing.B) {
			var pts []core.LoadedPoint
			for i := 0; i < b.N; i++ {
				cfg := config.GF100()
				cfg.Partition.DRAM.Scheduler = sched
				var err error
				pts, err = core.LoadedLatency(cfg, []float64{0.04}, core.LoadedOptions{Cycles: 30_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].MeanLatency, "mean-lat-cycles")
			b.ReportMetric(pts[0].P99Latency, "p99-lat-cycles")
			b.ReportMetric(pts[0].AchievedLoad, "achieved-load")
		})
	}
}

// BenchmarkAblationWarpScheduler compares LRR and GTO warp scheduling on
// the exposure metric.
func BenchmarkAblationWarpScheduler(b *testing.B) {
	for _, sched := range []sm.SchedPolicy{sm.LRR, sm.GTO} {
		b.Run(sched.String(), func(b *testing.B) {
			var res *core.DynamicResult
			for i := 0; i < b.N; i++ {
				cfg := config.GF100()
				cfg.SM.Scheduler = sched
				res = bfsExperiment(b, cfg, 1<<13)
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			b.ReportMetric(res.Exposure(24).OverallExposedPct(), "exposed-pct")
		})
	}
}

// BenchmarkAblationMSHR sweeps the L1 MSHR capacity, the structure
// behind the L1toICNT queueing contributor.
func BenchmarkAblationMSHR(b *testing.B) {
	for _, mshrs := range []int{8, 32, 64} {
		b.Run(map[int]string{8: "mshr8", 32: "mshr32", 64: "mshr64"}[mshrs], func(b *testing.B) {
			var res *core.DynamicResult
			for i := 0; i < b.N; i++ {
				cfg := config.GF100()
				cfg.SM.L1.MSHREntries = mshrs
				res = bfsExperiment(b, cfg, 1<<13)
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			b.ReportMetric(res.IPC(), "IPC")
		})
	}
}

// BenchmarkRunnerParallelSweep measures the experiment runner on a
// multi-arch × multi-kernel grid at one worker versus GOMAXPROCS
// workers. The grid is the runner's bread-and-butter shape (every
// paper sweep expands to one); the j1/jN wall-clock ratio is the
// subsystem's speedup on the host. Results are identical across worker
// counts — only the wall time differs.
func BenchmarkRunnerParallelSweep(b *testing.B) {
	grid := runner.Grid{
		Kind:     runner.KindDynamic,
		Archs:    []string{"GF106", "GK104", "GM107"},
		Kernels:  []string{"vecadd", "histogram", "stencil2d", "reduce"},
		Variants: []runner.Options{{TestScale: true}},
	}
	jobs := grid.Jobs()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set, err := runner.New(workers).Run(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				if err := set.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs)), "jobs/op")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall second) on a steady-state streaming kernel, the
// baseline number for sizing experiments.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles float64
	for i := 0; i < b.N; i++ {
		wl, err := kernels.NewByName("copy", kernels.ScaleExperiment, 7)
		if err != nil {
			b.Fatal(err)
		}
		g := gpu.New(config.GF100())
		c, err := kernels.Run(g, wl)
		if err != nil {
			b.Fatal(err)
		}
		cycles += float64(c)
	}
	b.ReportMetric(cycles/float64(b.N), "sim-cycles/op")
}
