package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/service"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// kernelBench is one (workload, engine) measurement of simulator
// throughput: how many device cycles the simulator covers per wall-clock
// second. The event engine's advantage is the skipped share — cycles it
// fast-forwarded instead of stepping.
type kernelBench struct {
	Workload        string  `json:"workload"`
	Engine          string  `json:"engine"`
	Cycles          uint64  `json:"cycles"`
	SteppedCycles   uint64  `json:"stepped_cycles"`
	SkippedCycles   uint64  `json:"skipped_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
}

// kernelBenchReport is the BENCH_kernel.json payload: per-workload
// throughput under both engines, plus the event-over-tick speedups.
type kernelBenchReport struct {
	// Host is omitted from -comparable reports, which must byte-diff
	// across machines and commits.
	Host       *benchHost         `json:"host,omitempty"`
	Arch       string             `json:"arch"`
	TimingReps int                `json:"timing_reps"`
	Benchmarks []kernelBench      `json:"benchmarks"`
	Speedup    map[string]float64 `json:"speedup_event_over_tick"`
}

// benchHost records where a bench-kernel report's wall-clock numbers
// come from — the facts bench/ prints on every run: processor count,
// GOMAXPROCS, toolchain, and the build (`gpulat version`: the commit the
// binary was built from, "+dirty" when the tree was modified; "(devel)"
// when it carries no VCS stamp, as under `go run`).
type benchHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Build      string `json:"build"`
}

// benchWorkloads builds the measured workloads: the latency-bound
// pointer chase (the event engine's headline case — the machine idles on
// one DRAM access at a time), the bandwidth-bound vecadd (the stress
// case, with almost no skippable cycles), and BFS (the paper's mixed
// dynamic workload). quick shrinks every workload for the CI smoke gate,
// where the point is the cross-engine checks, not the timings.
func benchWorkloads(g *gpu.GPU, name string, seed uint64, quick bool) (sim.Cycle, error) {
	switch name {
	case "pointerchase":
		accesses := 2000
		if quick {
			accesses = 300
		}
		wl, err := kernels.PChase(kernels.PChaseConfig{
			Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: accesses,
		})
		if err != nil {
			return 0, err
		}
		return kernels.Run(g, wl)
	case "vecadd":
		scale := kernels.ScaleExperiment
		if quick {
			scale = kernels.ScaleTest
		}
		wl, err := kernels.NewByName("vecadd", scale, seed)
		if err != nil {
			return 0, err
		}
		return kernels.Run(g, wl)
	case "bfs":
		nodes := 1 << 11
		if quick {
			nodes = 1 << 9
		}
		graph := kernels.GenScaleFree(nodes, 4, seed)
		mk, err := kernels.BFS(kernels.BFSConfig{Graph: graph, Source: 0, BlockDim: 128})
		if err != nil {
			return 0, err
		}
		cycles, _, err := kernels.RunMulti(g, mk)
		return cycles, err
	}
	return 0, usagef("bench-kernel: unknown workload %q", name)
}

// cmdBenchKernel measures simulation-kernel throughput (cycles simulated
// per wall-second) for each workload under both engines and writes the
// JSON report `make bench-baseline` commits as BENCH_kernel.json.
//
// Methodology: every (workload, engine) pair runs -reps times on a fresh
// device and the MINIMUM wall time is reported. Single-run walls vary
// tens of percent with host scheduler noise; the minimum is the stable
// estimator of the simulator's actual cost (anything above it is
// interference, never the simulator being "faster than possible"). The
// simulated results themselves must be identical across repetitions —
// any divergence fails the run, so timing reps double as a free
// determinism check.
func cmdBenchKernel(args []string) error {
	fs := newFlags("bench-kernel")
	arch := fs.String("arch", "GF100", "architecture preset (or file:<path>)")
	reps := fs.Int("reps", 3, "timing repetitions per measurement; the minimum wall is reported")
	quick := fs.Bool("quick", false, "reduced workload scales and a single repetition (CI smoke gate)")
	check := fs.Bool("check", false, "exit nonzero when the engines disagree on cycle counts or the event engine steps more cycles than the tick engine simulates")
	comparable := fs.Bool("comparable", false,
		"strip wall-clock fields (wall_seconds, cycles_per_second, speedups, reps) so reports from different runs can be byte-diffed")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := parseFlags(fs, args); err != nil {
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
				fmt.Fprintln(os.Stderr, "bench-kernel:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench-kernel:", err)
			}
		}()
	}
	base, err := mustConfig(*arch)
	if err != nil {
		return err
	}
	if *quick {
		*reps = 1
	}
	if *reps < 1 {
		return usagef("bench-kernel: -reps must be >= 1")
	}

	report := kernelBenchReport{Arch: base.Name, TimingReps: *reps, Speedup: map[string]float64{}}
	workloads := []string{"pointerchase", "vecadd", "bfs"}
	result := map[string]kernelBench{}
	key := func(wl string, engine sim.Engine) string { return wl + "/" + engine.String() }
	for _, wl := range workloads {
		for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
			var best kernelBench
			for r := 0; r < *reps; r++ {
				cfg := base
				cfg.Engine = engine
				g := gpu.New(cfg)
				begin := time.Now()
				cycles, err := benchWorkloads(g, wl, 42, *quick)
				if err != nil {
					return fmt.Errorf("bench-kernel %s: %w", key(wl, engine), err)
				}
				wall := time.Since(begin).Seconds()
				st := g.Stats()
				b := kernelBench{
					Workload:        wl,
					Engine:          engine.String(),
					Cycles:          uint64(cycles),
					SteppedCycles:   st.Cycles - st.SkippedCycles,
					SkippedCycles:   st.SkippedCycles,
					WallSeconds:     wall,
					CyclesPerSecond: float64(cycles) / wall,
				}
				if r == 0 {
					best = b
					continue
				}
				if b.Cycles != best.Cycles || b.SteppedCycles != best.SteppedCycles {
					return fmt.Errorf("bench-kernel %s: rep %d nondeterministic (cycles %d/%d, stepped %d/%d)",
						key(wl, engine), r, b.Cycles, best.Cycles, b.SteppedCycles, best.SteppedCycles)
				}
				if b.WallSeconds < best.WallSeconds {
					best.WallSeconds = b.WallSeconds
					best.CyclesPerSecond = b.CyclesPerSecond
				}
			}
			report.Benchmarks = append(report.Benchmarks, best)
			result[key(wl, engine)] = best
			fmt.Fprintf(os.Stderr, "bench-kernel: %-12s %-5s %9d cycles (%d stepped, %d skipped) best of %d: %.3fs — %.0f cycles/s\n",
				wl, engine, best.Cycles, best.SteppedCycles, best.SkippedCycles, *reps, best.WallSeconds, best.CyclesPerSecond)
		}
		report.Speedup[wl] = result[key(wl, sim.EngineEvent)].CyclesPerSecond / result[key(wl, sim.EngineTick)].CyclesPerSecond
	}

	if *check {
		// The regression gate: the engines must agree cycle-for-cycle, and
		// the event engine must never step more cycles than the tick
		// engine simulates (a stepped count above that means the skip
		// machinery stopped skipping — a perf regression even when the
		// results still match).
		bad := false
		for _, wl := range workloads {
			tick, event := result[key(wl, sim.EngineTick)], result[key(wl, sim.EngineEvent)]
			if tick.Cycles != event.Cycles {
				fmt.Fprintf(os.Stderr, "bench-kernel: CHECK FAIL %s: tick %d cycles, event %d cycles\n", wl, tick.Cycles, event.Cycles)
				bad = true
			}
			if event.SteppedCycles > tick.Cycles {
				fmt.Fprintf(os.Stderr, "bench-kernel: CHECK FAIL %s: event stepped %d > tick cycles %d\n", wl, event.SteppedCycles, tick.Cycles)
				bad = true
			}
			if event.SkippedCycles == 0 {
				fmt.Fprintf(os.Stderr, "bench-kernel: CHECK FAIL %s: event engine skipped nothing\n", wl)
				bad = true
			}
		}
		if bad {
			return fmt.Errorf("bench-kernel: engine regression check failed")
		}
		fmt.Fprintln(os.Stderr, "bench-kernel: engine regression check passed")
	}

	if *comparable {
		data, err := stats.ComparableJSON(report)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	report.Host = &benchHost{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Build: service.Version()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
