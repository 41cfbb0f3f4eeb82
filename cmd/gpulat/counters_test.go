package main

import (
	"bytes"
	"fmt"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
)

// TestCountersGolden pins the device's and every SM, L1, partition, L2,
// DRAM and crossbar counter (Counters.String, the engine-dependent
// skipped cycles and EjectBlocked zeroed) of a multi-launch BFS at 512
// vertices and of a co-run pair under both placements on GF106, against
// testdata/counters.golden. The per-cycle observations among them — SM
// cycles and empty issue slots, L1 and L2 reservation fails, L2 and DRAM
// stalls — are printed by no export, and the engine-equivalence tests
// cannot see an accounting error both engines share, so only a golden
// holds them. Both engines must print the same bytes.
func TestCountersGolden(t *testing.T) {
	runs := []struct {
		name       string
		placements []sched.Placement
		run        func(g *gpu.GPU) error
	}{
		{"bfs", []sched.Placement{sched.PlacementShared}, func(g *gpu.GPU) error {
			mk, err := kernels.BFS(kernels.BFSConfig{Graph: kernels.GenScaleFree(512, 4, 1), BlockDim: 128})
			if err != nil {
				return err
			}
			_, _, err = kernels.RunMulti(g, mk)
			return err
		}},
		{"gather+vecadd", []sched.Placement{sched.PlacementShared, sched.PlacementSpatial}, func(g *gpu.GPU) error {
			pair, err := kernels.CoRun("gather", "vecadd", kernels.ScaleTest, 1, 2)
			if err != nil {
				return err
			}
			pair.A.Setup(g.Memory)
			pair.B.Setup(g.Memory)
			if _, err := g.Enqueue("A", pair.A.Kernel); err != nil {
				return err
			}
			if _, err := g.Enqueue("B", pair.B.Kernel); err != nil {
				return err
			}
			_, err = g.Run()
			return err
		}},
	}
	var got bytes.Buffer
	for _, r := range runs {
		for _, placement := range r.placements {
			var first []byte
			for _, engine := range []sim.Engine{sim.EngineEvent, sim.EngineTick} {
				cfg := config.GF106()
				cfg.Engine, cfg.Placement = engine, placement
				g := gpu.New(cfg)
				if err := r.run(g); err != nil {
					t.Fatalf("%s %s %s: %v", r.name, placement, engine, err)
				}
				var b bytes.Buffer
				c := g.Counters()
				c.SkippedCycles = 0
				c.ReqNet.EjectBlocked, c.ReplyNet.EjectBlocked = 0, 0
				fmt.Fprintf(&b, "== %s %s: %d cycles ==\n%v", r.name, placement, g.Cycle(), c)
				if first == nil {
					first = b.Bytes()
					got.Write(first)
				} else if !bytes.Equal(b.Bytes(), first) {
					t.Errorf("%s %s: engine %s counts other than engine event:\n%s\n%s", r.name, placement, engine, b.Bytes(), first)
				}
			}
		}
	}
	matchGolden(t, "counters.golden", got.Bytes())
}
