package gpu_test

import (
	"fmt"
	"reflect"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
)

// TestReleaseKeepsCounters: a released device's Counters deep-equal
// those it read before the release, and so do the accessors the
// repository benchmark reads of a released device (Stats, WakeStats and
// each SM's, partition's and DRAM channel's Stats), under both engines,
// for single kernels and a multi-launch BFS. The device refuses further
// work: Run and Enqueue return an error and Step panics.
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
				want := g.Counters()
				g.Release()
				got := g.Counters()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("counters changed by Release:\n--- before ---\n%v--- after ---\n%v", want, got)
				}
				if st, w := g.Stats(), g.WakeStats(); st != got.Stats || !reflect.DeepEqual(w, got.Wakes) {
					t.Errorf("released device reads Stats %+v and wakes %+v, its counters %+v and %+v", st, w, got.Stats, got.Wakes)
				}
				for i, s := range g.SMs() {
					if s.Stats() != got.SMs[i] {
						t.Errorf("released sm%d reads %+v, its counters %+v", i, s.Stats(), got.SMs[i])
					}
				}
				for i, p := range g.Partitions() {
					if p.Stats() != got.Partitions[i] || p.DRAM().Stats() != got.DRAMs[i] {
						t.Errorf("released part%d reads %+v dram %+v, its counters %+v dram %+v",
							i, p.Stats(), p.DRAM().Stats(), got.Partitions[i], got.DRAMs[i])
					}
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
