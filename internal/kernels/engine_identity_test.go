package kernels

import (
	"fmt"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/sim"
)

// engineStatsSig renders the full per-component statistics the engines
// must agree on, cycle counters excluded (they advance on skipped
// cycles by design and are settled by each SM).
func engineStatsSig(g *gpu.GPU) string {
	var b strings.Builder
	for _, s := range g.SMs() {
		ss := s.Stats()
		ss.Cycles, ss.IssueStallEmpty = 0, 0
		fmt.Fprintf(&b, "sm%d:%+v\n", s.Config().ID, ss)
		if l1 := s.L1(); l1 != nil {
			fmt.Fprintf(&b, "  l1:%+v\n", l1.Stats())
		}
	}
	for i, p := range g.Partitions() {
		fmt.Fprintf(&b, "part%d:%+v dram:%+v\n", i, p.Stats(), p.DRAM().Stats())
		if l2 := p.L2(); l2 != nil {
			fmt.Fprintf(&b, "  l2:%+v\n", l2.Stats())
		}
	}
	return b.String()
}

// TestEngineIdentityOnCatalogKernels runs catalog workloads that
// saturate L1 MSHRs and DRAM queue slots on the full GF100 machine
// under both engines and requires identical cycle counts and component
// statistics, and an event engine that fast-forwards. These workloads
// exercise the blocked-head park states (full miss queue, L1/L2
// reservation failures, DRAM backpressure) whose retry counters the
// SMs' and partitions' Settle must replay exactly — the engine-equivalence
// micro-workloads in internal/gpu are too small to reach them.
func TestEngineIdentityOnCatalogKernels(t *testing.T) {
	// pchase and bfs bracket the horizon extremes: the latency-bound
	// chase (one outstanding load, everything skippable) and the
	// throughput-bound multi-launch BFS (dense traffic, host loop
	// between launches). bfs is not a catalog entry, so it runs through
	// the MultiKernel path.
	type tc struct {
		name, kernel string
		cfg          gpu.Config
		scale        Scale
	}
	var cases []tc
	for _, name := range []string{"vecadd", "spmv", "gather", "histogram", "pchase", "bfs"} {
		cases = append(cases, tc{name, name, config.GF100(), ScaleTest})
	}
	// The L1-bypass presets at experiment scale fill the L2 hit pipe to
	// its admission limit with hits and then land fill bursts on top of
	// it, which used to overflow the pipe (a panic in Partition.finish).
	cases = append(cases,
		tc{"GK104/histogram", "histogram", config.GK104(), ScaleExperiment},
		tc{"GM107/histogram", "histogram", config.GM107(), ScaleExperiment},
		tc{"GK104/gather", "gather", config.GK104(), ScaleExperiment})
	// reduce on the L1-bypass presets failed verification when a barrier
	// released into a slot a finished warp had handed to another block;
	// Run verifies, so these two pin the fix.
	cases = append(cases,
		tc{"GK104/reduce", "reduce", config.GK104(), ScaleExperiment},
		tc{"GM107/reduce", "reduce", config.GM107(), ScaleExperiment})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(engine sim.Engine) *gpu.GPU {
				cfg := c.cfg
				cfg.Engine = engine
				g := gpu.New(cfg)
				if c.kernel == "bfs" {
					graph := GenScaleFree(512, 4, 1)
					mk, err := BFS(BFSConfig{Graph: graph, Source: 0, BlockDim: 128})
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := RunMulti(g, mk); err != nil {
						t.Fatal(err)
					}
					return g
				}
				wl, err := NewByName(c.kernel, c.scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(g, wl); err != nil {
					t.Fatal(err)
				}
				return g
			}
			gt := run(sim.EngineTick)
			ge := run(sim.EngineEvent)
			if gt.Cycle() != ge.Cycle() {
				t.Fatalf("cycles: tick %d event %d", gt.Cycle(), ge.Cycle())
			}
			if a, b := engineStatsSig(gt), engineStatsSig(ge); a != b {
				t.Fatalf("stats diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
			}
			// Equal answers from an event engine that steps every cycle
			// would still be a regression: every case skips something,
			// and the chase, which waits on one DRAM access at a time,
			// steps almost nothing (1.6% at this scale).
			st := ge.Stats()
			stepped := st.Cycles - st.SkippedCycles
			if st.SkippedCycles == 0 {
				t.Errorf("event engine skipped nothing in %d cycles", st.Cycles)
			}
			if c.kernel == "pchase" && stepped*20 > st.Cycles {
				t.Errorf("event engine stepped %d of %d cycles, want at most 5%%", stepped, st.Cycles)
			}
		})
	}
}
