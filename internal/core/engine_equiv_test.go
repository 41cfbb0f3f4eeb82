package core_test

import (
	"fmt"
	"iter"
	"reflect"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

// runBoth executes the same workload under the tick and event engines on
// fresh devices built from the same preset.
func runBoth(t *testing.T, cfg gpu.Config, kernel string, seed uint64) (tick, event *core.DynamicResult) {
	t.Helper()
	run := func(engine sim.Engine) *core.DynamicResult {
		c := cfg
		c.Engine = engine
		var res *core.DynamicResult
		var err error
		if kernel == "bfs" {
			g := kernels.GenScaleFree(1<<9, 4, seed)
			mk, berr := kernels.BFS(kernels.BFSConfig{Graph: g, Source: 0, BlockDim: 128})
			if berr != nil {
				t.Fatal(berr)
			}
			res, err = core.RunDynamicMulti(c, mk)
		} else {
			wl, werr := kernels.NewByName(kernel, kernels.ScaleTest, seed)
			if werr != nil {
				t.Fatal(werr)
			}
			res, err = core.RunDynamic(c, wl)
		}
		if err != nil {
			t.Fatalf("%s on %s (%s): %v", kernel, cfg.Name, engine, err)
		}
		return res
	}
	return run(sim.EngineTick), run(sim.EngineEvent)
}

// TestEngineEquivalenceAcrossPresets is the cross-loop gate of the
// event-driven kernel: for every architecture preset and a spread of
// workloads, the tick and event engines must agree field-by-field on
// cycles, instruction counts, every tracked load's complete stage log,
// and the derived Figure 1 / Figure 2 reports.
func TestEngineEquivalenceAcrossPresets(t *testing.T) {
	type tc struct {
		arch   string
		kernel string
	}
	var cases []tc
	// Every preset (all four generations' cache topologies) on the
	// memory-heavy catalog staple.
	for _, arch := range config.Names() {
		cases = append(cases, tc{arch, "vecadd"})
	}
	// Diverse access patterns and the host-loop workload on one Fermi
	// preset (GF106 is the smallest device, keeping the matrix fast).
	for _, k := range []string{"gather", "spmv", "reduce", "histogram", "bfs"} {
		cases = append(cases, tc{"GF106", k})
	}

	for _, c := range cases {
		t.Run(c.arch+"/"+c.kernel, func(t *testing.T) {
			cfg, ok := config.ByName(c.arch)
			if !ok {
				t.Fatalf("unknown preset %s", c.arch)
			}
			rt, re := runBoth(t, cfg, c.kernel, 42)

			if rt.Cycles != re.Cycles {
				t.Fatalf("cycles: tick %d, event %d", rt.Cycles, re.Cycles)
			}
			if rt.Instructions != re.Instructions {
				t.Fatalf("instructions: tick %d, event %d", rt.Instructions, re.Instructions)
			}
			if rt.Launches != re.Launches {
				t.Fatalf("launches: tick %d, event %d", rt.Launches, re.Launches)
			}
			if nt, ne := rt.Tracker.Len(), re.Tracker.Len(); nt != ne {
				t.Fatalf("tracked loads: tick %d, event %d", nt, ne)
			}
			nextE, stop := iter.Pull(re.Tracker.All())
			defer stop()
			i := 0
			for recT := range rt.Tracker.All() {
				if recE, _ := nextE(); *recT != *recE {
					t.Fatalf("load record %d diverged:\ntick:  %+v\nevent: %+v", i, *recT, *recE)
				}
				i++
			}
			if bt, be := rt.Breakdown(24), re.Breakdown(24); !reflect.DeepEqual(bt, be) {
				t.Fatalf("breakdown reports diverged:\ntick:  %+v\nevent: %+v", bt, be)
			}
			if et, ee := rt.Exposure(24), re.Exposure(24); !reflect.DeepEqual(et, ee) {
				t.Fatalf("exposure reports diverged:\ntick:  %+v\nevent: %+v", et, ee)
			}
		})
	}
}

// TestEngineEquivalenceLoaded checks the synthetic-load testbench path:
// the event engine fast-forwards only the drain phase, and the measured
// points must come out identical.
func TestEngineEquivalenceLoaded(t *testing.T) {
	cfg, _ := config.ByName("GF106")
	opt := core.LoadedOptions{Cycles: 4000, Seed: 1}
	loads := []float64{0.01, 0.2}

	tick := cfg
	tick.Engine = sim.EngineTick
	pt, err := core.LoadedLatency(tick, loads, opt)
	if err != nil {
		t.Fatal(err)
	}
	event := cfg
	event.Engine = sim.EngineEvent
	pe, err := core.LoadedLatency(event, loads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pt, pe) {
		t.Fatalf("loaded points diverged:\ntick:  %+v\nevent: %+v", pt, pe)
	}
}

// TestEngineEquivalenceStatic checks the pointer-chase measurement path
// (Table I) end to end: per-level mean latencies must match exactly.
func TestEngineEquivalenceStatic(t *testing.T) {
	for _, arch := range []string{"GF106", "GT200"} {
		t.Run(arch, func(t *testing.T) {
			cfg, _ := config.ByName(arch)
			opt := core.DefaultStaticOptions()
			opt.Accesses = 64

			tick := cfg
			tick.Engine = sim.EngineTick
			rt, err := core.MeasureStatic(tick, opt)
			if err != nil {
				t.Fatal(err)
			}
			event := cfg
			event.Engine = sim.EngineEvent
			re, err := core.MeasureStatic(event, opt)
			if err != nil {
				t.Fatal(err)
			}
			// NaN marks hierarchy levels the architecture lacks, so
			// compare the rendered form (NaN != NaN under ==).
			if fmt.Sprintf("%+v", rt) != fmt.Sprintf("%+v", re) {
				t.Fatalf("static results diverged:\ntick:  %+v\nevent: %+v", rt, re)
			}
		})
	}
}
