package core

import (
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/kernels"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
)

// TestRunCoRunReconciles co-runs a latency-bound and a bandwidth-bound
// catalog workload under both placement policies and checks that the
// per-kernel stats reconcile with the device totals, both sides verify,
// and both engines agree on every reported number.
func TestRunCoRunReconciles(t *testing.T) {
	for _, placement := range []string{"shared", "spatial"} {
		t.Run(placement, func(t *testing.T) {
			var results []*CoRunResult
			for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
				cfg, err := config.ByNameOrFile("GF106")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Engine = engine
				cfg.Placement, err = sched.ParsePlacement(placement)
				if err != nil {
					t.Fatal(err)
				}
				// Fresh pair per engine: Setup/Verify closures hold state.
				pair, err := kernels.CoRun("gather", "copy", kernels.ScaleTest, 7, 8)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunCoRun(cfg, pair)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			tick, event := results[0], results[1]
			if tick.Cycles != event.Cycles {
				t.Fatalf("cycles: tick %d, event %d", tick.Cycles, event.Cycles)
			}
			for _, res := range results {
				if len(res.Kernels) != 2 {
					t.Fatalf("want 2 kernels, got %d", len(res.Kernels))
				}
				var blocks int
				var loads int
				for _, k := range res.Kernels {
					if k.BlocksDispatched != k.BlocksRetired {
						t.Fatalf("%s: dispatched %d != retired %d", k.Workload, k.BlocksDispatched, k.BlocksRetired)
					}
					if k.CompletedAt <= k.LaunchedAt {
						t.Fatalf("%s: empty residency span [%d, %d]", k.Workload, k.LaunchedAt, k.CompletedAt)
					}
					if k.Loads == 0 {
						t.Fatalf("%s: no tracked loads", k.Workload)
					}
					blocks += k.BlocksDispatched
					loads += k.Loads
				}
				if uint64(blocks) != res.Counters.BlocksDispatch {
					t.Fatalf("per-kernel blocks %d != device %d", blocks, res.Counters.BlocksDispatch)
				}
				if res.Counters.KernelsLaunched != 2 {
					t.Fatalf("device KernelsLaunched = %d, want 2", res.Counters.KernelsLaunched)
				}
				if loads != res.Tracker.Len() {
					t.Fatalf("per-kernel loads %d != tracked records %d", loads, res.Tracker.Len())
				}
			}
			for i, k := range tick.Kernels {
				e := event.Kernels[i]
				if k.CyclesResident != e.CyclesResident || k.ExposedPct != e.ExposedPct ||
					k.LoadLat.Mean != e.LoadLat.Mean {
					t.Fatalf("kernel %d diverged across engines:\ntick  %+v\nevent %+v", i, k, e)
				}
			}
		})
	}
}

// TestKernelExposureFilters checks the per-kernel exposure view against
// the whole-run report: bucket totals of the two kernels must sum to the
// whole.
func TestKernelExposureFilters(t *testing.T) {
	cfg, err := config.ByNameOrFile("GF106")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := kernels.CoRun("gather", "copy", kernels.ScaleTest, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCoRun(cfg, pair)
	if err != nil {
		t.Fatal(err)
	}
	all := res.Tracker.Exposure("all", "GF106", 16)
	a := res.Tracker.KernelExposure("a", "GF106", 16, 0)
	b := res.Tracker.KernelExposure("b", "GF106", 16, 1)
	if a.Requests+b.Requests != all.Requests {
		t.Fatalf("filtered requests %d+%d != total %d", a.Requests, b.Requests, all.Requests)
	}
	if a.TotalExposed+b.TotalExposed != all.TotalExposed {
		t.Fatalf("filtered exposed %d+%d != total %d", a.TotalExposed, b.TotalExposed, all.TotalExposed)
	}
	if a.TotalHidden+b.TotalHidden != all.TotalHidden {
		t.Fatalf("filtered hidden %d+%d != total %d", a.TotalHidden, b.TotalHidden, all.TotalHidden)
	}
}
