package gpulat_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sort"

	"gpulat"
)

// BFS over a scale-free graph on GF100, the paper's dynamic analysis
// (Figures 1 and 2; `gpulat fig1` and `gpulat fig2` draw them in full).
func ExampleRunBFS() {
	cfg, err := gpulat.Preset("GF100")
	if err != nil {
		log.Fatal(err)
	}
	res, err := gpulat.RunBFS(cfg, gpulat.BFSOptions{Vertices: 512})
	if err != nil {
		log.Fatal(err)
	}
	bd, ex := res.Breakdown(48), res.Exposure(24)
	fmt.Printf("%d cycles over %d kernel launches\n", res.Cycles, res.Launches)
	fmt.Printf("L1toICNT %.1f%%, DRAM(QtoSch) %.1f%% of request latency\n",
		bd.TotalPct(gpulat.StageL1ToICNT), bd.TotalPct(gpulat.StageDRAMQueue))
	fmt.Printf("%.1f%% of load latency exposed; %.1f%% of loads >50%% exposed\n",
		ex.OverallExposedPct(), ex.MostlyExposedPct())
	// Output:
	// 63696 cycles over 4 kernel launches
	// L1toICNT 0.1%, DRAM(QtoSch) 1.6% of request latency
	// 89.0% of load latency exposed; 99.9% of loads >50% exposed
}

// The stride×footprint pointer-chase surface behind Table I: the mean
// latency steps up as the footprint outgrows each cache level (`gpulat
// sweep` measures the whole surface).
func ExampleSweep() {
	cfg, err := gpulat.Preset("GF106")
	if err != nil {
		log.Fatal(err)
	}
	points, err := gpulat.Sweep(cfg, []uint32{128}, []uint32{8 << 10, 64 << 10, 4 << 20})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("stride %d, footprint %d: %.1f cycles\n", p.Stride, p.Footprint, p.MeanLat)
	}
	// Output:
	// stride 128, footprint 8192: 45.0 cycles
	// stride 128, footprint 65536: 310.0 cycles
	// stride 128, footprint 4194304: 678.5 cycles
}

// Latency hiding vs resident warps per SM (`gpulat ablate-occupancy`).
func ExampleOccupancySweep() {
	cfg, err := gpulat.Preset("GF100")
	if err != nil {
		log.Fatal(err)
	}
	points, err := gpulat.OccupancySweep(cfg, []int{4, 16}, gpulat.BFSOptions{Vertices: 2048})
	if err != nil {
		log.Fatal(err)
	}
	gpulat.RenderOccupancy(os.Stdout, "bfs", cfg.Name, points)
	// Output:
	// Latency hiding vs occupancy — bfs on GF100
	// warps/SM  cycles  IPC    mean load lat  exposed%  exposure
	// --------  ------  -----  -------------  --------  --------------------
	// 4         129133  0.450  85.4           89.5      ##################..
	// 16        127556  0.458  85.8           88.9      ##################..
}

// A latency-bound gather shares GF100 with a bandwidth-bound copy on
// independent streams, first on shared SMs, then on a spatial split of
// them (`gpulat corun -pairs gather:copy`).
func ExampleRunCoRun() {
	for _, placement := range []gpulat.Placement{gpulat.PlacementShared, gpulat.PlacementSpatial} {
		cfg, err := gpulat.Preset("GF100")
		if err != nil {
			log.Fatal(err)
		}
		cfg.Placement = placement
		pair, err := gpulat.NewCoRun("gather", "copy", gpulat.ScaleTest, 7, 8)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gpulat.RunCoRun(cfg, pair)
		if err != nil {
			log.Fatal(err)
		}
		a, b := res.Kernels[0], res.Kernels[1]
		fmt.Printf("%s %s: %d cycles; gather %.1f%% exposed, copy %.1f%% exposed\n",
			res.Pair, res.Placement, uint64(res.Cycles), a.ExposedPct, b.ExposedPct)
	}
	// Output:
	// gather+copy shared: 3701 cycles; gather 96.7% exposed, copy 96.2% exposed
	// gather+copy spatial: 3856 cycles; gather 95.5% exposed, copy 96.9% exposed
}

// Build a Fermi-generation GPU, run vecadd on it with full latency
// instrumentation, and read the run summary — the smallest end-to-end
// use of the library.
func ExampleRunWorkloadOn() {
	cfg, err := gpulat.Preset("GF106")
	if err != nil {
		log.Fatal(err)
	}
	wl, err := gpulat.NewWorkload("vecadd", gpulat.ScaleTest, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gpulat.RunWorkloadOn(cfg, wl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s on %s: %d cycles, %d instructions (IPC %.2f)\n",
		res.Workload, res.Arch, res.Cycles, res.Instructions, res.IPC())
	fmt.Printf("%d global loads, mean latency %.1f cycles\n", res.Tracker.Len(), res.Tracker.MeanLoadLatency())
	// Even a throughput-oriented GPU feels latency: other warps' work
	// covers only part of it.
	fmt.Printf("%.1f%% of load latency exposed\n", res.Exposure(16).OverallExposedPct())
	// Output:
	// ran vecadd/n=4096 on GF106: 3239 cycles, 2304 instructions (IPC 0.71)
	// 256 global loads, mean latency 1240.2 cycles
	// 94.2% of load latency exposed
}

// Table I, the paper's static analysis: the single-thread pointer chase
// measures each architecture's unloaded L1, L2 and DRAM latency
// (`gpulat table1` prints it next to the published values).
func ExampleMeasureStatic() {
	var rows []gpulat.StaticResult
	for _, arch := range []string{"GT200", "GF106", "GK104", "GM107"} {
		cfg, err := gpulat.Preset(arch)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gpulat.MeasureStatic(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, res)
	}
	gpulat.RenderTableI(os.Stdout, rows)
	// Output:
	// Unit   GT200  GF106  GK104  GM107
	// -----  -----  -----  -----  -----
	// L1 D$  x      45     30     x
	// L2 D$  x      310    175    194
	// DRAM   441    685    304    350
	// note: GK104 L1 measured via local-memory accesses (global bypasses L1)
}

// The memory hierarchy's levels read off a pointer-chase sweep: each
// plateau of the mean latency is one level (`gpulat sweep -detect`).
func ExampleDetectLevels() {
	cfg, err := gpulat.Preset("GF106")
	if err != nil {
		log.Fatal(err)
	}
	stride := uint32(128)
	points, err := gpulat.Sweep(cfg, []uint32{stride}, []uint32{8 << 10, 16 << 10, 64 << 10, 128 << 10, 2 << 20, 4 << 20})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range gpulat.DetectLevels(points, stride) {
		fmt.Printf("%+v\n", l)
	}
	// Output:
	// {LoFootprint:8192 HiFootprint:16384 Latency:45 Points:2}
	// {LoFootprint:65536 HiFootprint:131072 Latency:311.609375 Points:2}
	// {LoFootprint:2097152 HiFootprint:4194304 Latency:678.5 Points:2}
}

// Latency under load: the idle-to-saturated curve of random global
// loads on GF100 that bridges the static and dynamic analyses (`gpulat
// load-curve`).
func ExampleLoadedLatency() {
	cfg, err := gpulat.Preset("GF100")
	if err != nil {
		log.Fatal(err)
	}
	points, err := gpulat.LoadedLatency(cfg, []float64{0.005, 0.02})
	if err != nil {
		log.Fatal(err)
	}
	gpulat.RenderLoadedCurve(os.Stdout, cfg.Name, points)
	// Output:
	// Loaded latency curve — GF100 (random global loads, uniform traffic)
	// offered/port  achieved/port  mean lat  p99 lat  completed
	// ------------  -------------  --------  -------  ---------
	// 0.005         0.005          689.8     770.0    3864
	// 0.020         0.020          792.3     1135.0   15209
}

// The simulation kernel itself: the same vecadd under the cycle-driven
// reference loop and the event loop, which agree cycle for cycle; the
// event loop steps only the cycles some component's wake is due in and
// jumps the clock across the rest (`gpulat simrun -trace-sim -` prints
// every counter).
func ExampleNewGPU() {
	for _, engine := range []gpulat.Engine{gpulat.EngineTick, gpulat.EngineEvent} {
		cfg, err := gpulat.Preset("GF100")
		if err != nil {
			log.Fatal(err)
		}
		cfg.Engine = engine
		g := gpulat.NewGPU(cfg)
		wl, err := gpulat.NewWorkload("vecadd", gpulat.ScaleTest, 42)
		if err != nil {
			log.Fatal(err)
		}
		wl.Setup(g.Memory)
		cycles, err := g.RunKernel(wl.Kernel)
		if err == nil {
			err = wl.Verify(g.Memory)
		}
		if err != nil {
			log.Fatal(err)
		}
		st := g.Stats()
		fmt.Printf("%s: %d cycles, %d stepped, %d skipped\n", engine, cycles, st.Cycles-st.SkippedCycles, st.SkippedCycles)
		if engine != gpulat.EngineEvent {
			continue
		}
		// Who kept the clock stepping: Arms counts the wake registrations
		// a component made, Fired the due ones that ticked it.
		ws := g.WakeStats()
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].Fired > ws[j].Fired })
		for _, w := range ws[:3] {
			fmt.Printf("  %s: %d arms, %d fired\n", w.Name, w.Arms, w.Fired)
		}
	}
	// Output:
	// tick: 2462 cycles, 2462 stepped, 0 skipped
	// event: 2462 cycles, 1226 stepped, 1236 skipped
	//   part3: 232 arms, 232 fired
	//   part4: 232 arms, 232 fired
	//   part5: 227 arms, 227 fired
}

// A result cache under a runner memoizes sweeps in-process: the second
// run of a job is a cache hit, with the same metrics.
func ExampleCachedExec() {
	dir, err := os.MkdirTemp("", "gpulat-cache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cache, err := gpulat.OpenResultCache(dir, 0)
	if err != nil {
		log.Fatal(err)
	}
	r := gpulat.NewRunner(1)
	r.Exec = gpulat.CachedExec(cache, nil)
	jobs := gpulat.Grid{Kind: gpulat.KindDynamic, Archs: []string{"GF106"}, Kernels: []string{"vecadd"},
		Variants: []gpulat.JobOptions{{TestScale: true}}}.Jobs()
	for range 2 {
		set, err := r.Run(context.Background(), jobs)
		if err == nil {
			err = set.Err()
		}
		if err != nil {
			log.Fatal(err)
		}
		cycles, _ := set.Results[0].Metric("cycles")
		st := cache.Stats()
		fmt.Printf("%.0f cycles; cache hits %d, misses %d\n", cycles, st.Hits, st.Misses)
	}
	// Output:
	// 3239 cycles; cache hits 0, misses 1
	// 3239 cycles; cache hits 1, misses 1
}

// The sharded service tier: a coordinator routes each job, by its content
// key, to one of two stations, and the result set a client gets through
// it is the one a direct run gives (`gpulat serve -backends`).
func ExampleNewCoordinator() {
	var backends []string
	for range 2 {
		st := gpulat.NewStation(nil, gpulat.StationConfig{Workers: 1})
		defer st.Close()
		ts := httptest.NewServer(gpulat.NewServiceHandler(st, nil))
		defer ts.Close()
		backends = append(backends, ts.URL)
	}
	coord, err := gpulat.NewCoordinator(gpulat.CoordinatorConfig{Backends: backends})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(gpulat.NewServiceHandler(coord, nil))
	defer front.Close()

	ctx := context.Background()
	jobs := gpulat.Grid{Kind: gpulat.KindDynamic, Archs: []string{"GF106"}, Kernels: []string{"vecadd", "copy"},
		Variants: []gpulat.JobOptions{{TestScale: true}}}.Jobs()
	served, err := gpulat.NewServiceClient(front.URL).RunJobs(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := gpulat.NewRunner(1).Run(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range served.Results {
		got, _ := r.Metric("cycles")
		want, _ := direct.Results[i].Metric("cycles")
		fmt.Printf("%s: %.0f cycles served, %.0f direct\n", r.Job.Kernel, got, want)
	}
	forwarded := int64(0)
	for _, b := range coord.Backends() {
		forwarded += b.Submitted
	}
	fmt.Printf("%d jobs forwarded over %d backends\n", forwarded, len(backends))
	// Output:
	// vecadd: 3239 cycles served, 3239 direct
	// copy: 2392 cycles served, 2392 direct
	// 2 jobs forwarded over 2 backends
}
