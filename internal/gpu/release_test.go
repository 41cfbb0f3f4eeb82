package gpu_test

import (
	"fmt"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/metrics"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
)

// deviceCounters renders every counter a released device keeps: the
// device's and the wake calendar's, each SM's, partition's and DRAM
// channel's, each kernel's, and the -trace-sim exposition built from them.
func deviceCounters(t *testing.T, g *gpu.GPU) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "gpu %+v\nwakes %+v\n", g.Stats(), g.WakeStats())
	for _, s := range g.SMs() {
		fmt.Fprintf(&b, "sm%d %+v\n", s.Config().ID, s.Stats())
	}
	for i, p := range g.Partitions() {
		fmt.Fprintf(&b, "part%d %+v dram %+v\n", i, p.Stats(), p.DRAM().Stats())
	}
	for _, k := range g.Dispatcher().Kernels() {
		fmt.Fprintf(&b, "kernel%d %+v\n", k.ID, k.Stats())
	}
	reg := metrics.NewRegistry()
	g.ExportMetrics(reg)
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReleaseKeepsCounters: a released device reads every counter it
// read before the release, under both engines, for single kernels and a
// multi-launch BFS, and refuses further work: Run and Enqueue return an
// error and Step panics.
func TestReleaseKeepsCounters(t *testing.T) {
	cfg, _ := config.ByName("GF106")
	for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
		cfg.Engine = engine
		for _, name := range []string{"vecadd", "histogram", "bfs"} {
			t.Run(fmt.Sprintf("%s/%s", engine, name), func(t *testing.T) {
				g := gpu.New(cfg)
				if name == "bfs" {
					mk, err := kernels.BFS(kernels.BFSConfig{Graph: kernels.GenScaleFree(512, 4, 3), BlockDim: 128})
					if err != nil {
						t.Fatal(err)
					}
					if _, launches, err := kernels.RunMulti(g, mk); err != nil || launches < 2 {
						t.Fatalf("bfs: %d launches, error %v; want a multi-launch run", launches, err)
					}
				} else {
					wl, err := kernels.NewByName(name, kernels.ScaleTest, 3)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := kernels.Run(g, wl); err != nil {
						t.Fatal(err)
					}
				}
				want := deviceCounters(t, g)
				g.Release()
				if got := deviceCounters(t, g); got != want {
					t.Fatalf("counters changed by Release:\n--- before ---\n%s--- after ---\n%s", want, got)
				}
				k := g.Dispatcher().Kernels()[0].Kernel
				if _, err := g.Run(); err == nil {
					t.Error("Run on a released device returned no error")
				}
				if _, err := g.Enqueue(sched.DefaultStream, k); err == nil {
					t.Error("Enqueue on a released device returned no error")
				}
				defer func() {
					if recover() == nil {
						t.Error("Step on a released device did not panic")
					}
				}()
				g.Step()
			})
		}
	}
}
