package gpu

import (
	"fmt"
	"strings"
	"testing"

	"gpulat/internal/isa"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// parStatsSig renders every per-component counter the worker counts
// must agree on (cycle counters included: the phase shards never skip).
func parStatsSig(g *GPU) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dev:%+v\n", g.Stats())
	for _, s := range g.SMs() {
		fmt.Fprintf(&b, "sm%d:%+v\n", s.Config().ID, s.Stats())
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

// histKernel has every thread of the grid atomically bump one shared
// counter and record the old value — the worst case for cross-SM
// same-cycle effects, which the deferred-commit order must serialize
// identically at every worker count.
func histKernel(ctrAddr, outAddr uint32, blockDim, gridDim int) *sm.Kernel {
	b := isa.NewBuilder("hist")
	b.Param(1, 0).
		MovI(2, 1).
		Atom(3, 1, 0, 2). // old = atomicAdd(ctr, 1)
		Param(4, 1).
		S2R(5, isa.SrTID).
		S2R(6, isa.SrCTAID).
		S2R(7, isa.SrNTID).
		IMad(5, 6, 7, 5). // gid
		ShlI(5, 5, 2).
		IAdd(4, 4, 5).
		Stg(4, 0, 3). // out[gid] = old
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{ctrAddr, outAddr},
		BlockDim: blockDim,
		GridDim:  gridDim,
	}
}

// TestWorkerCountInvariance runs the same workloads at Workers 1 and 8
// under both engines and requires identical cycle counts, component
// statistics, and functional memory — the per-run half of the
// determinism contract `make par-determinism` pins end to end.
func TestWorkerCountInvariance(t *testing.T) {
	kernels := map[string]func() *sm.Kernel{
		"vecinc": func() *sm.Kernel { return vecIncKernel(0x10000, 0x20000, 512, 64) },
		"hist":   func() *sm.Kernel { return histKernel(0x30000, 0x40000, 64, 8) },
	}
	for name, mk := range kernels {
		for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
			t.Run(fmt.Sprintf("%s/%s", name, engine), func(t *testing.T) {
				run := func(workers int) (sim.Cycle, string, []uint32) {
					cfg := tinyConfig()
					cfg.NumSMs = 4
					cfg.Engine = engine
					cfg.Workers = workers
					g := New(cfg)
					for i := uint64(0); i < 512; i++ {
						g.Memory.Store32(0x10000+i*4, uint32(i*3))
					}
					cyc, err := g.RunKernel(mk())
					if err != nil {
						t.Fatal(err)
					}
					var out []uint32
					for i := uint64(0); i < 512; i++ {
						out = append(out, g.Memory.Load32(0x20000+i*4), g.Memory.Load32(0x40000+i*4))
					}
					out = append(out, g.Memory.Load32(0x30000))
					return cyc, parStatsSig(g), out
				}
				c1, s1, m1 := run(1)
				c8, s8, m8 := run(8)
				if c1 != c8 {
					t.Fatalf("cycles: workers=1 %d workers=8 %d", c1, c8)
				}
				if s1 != s8 {
					t.Fatalf("stats diverged:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", s1, s8)
				}
				for i := range m1 {
					if m1[i] != m8[i] {
						t.Fatalf("functional memory diverged at word %d: %d vs %d", i, m1[i], m8[i])
					}
				}
			})
		}
	}
}

// TestManualStepThenRunPar is TestManualStepThenRun's -par 8 case: the
// hand-stepped cycles run on the nil pool, the Run that follows on eight
// workers, and the result is the serial one under both engines.
func TestManualStepThenRunPar(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
		cfg := tinyConfig()
		cfg.Engine = engine
		g1, c1 := manualStepThenRun(t, cfg)
		cfg.Workers = 8
		g8, c8 := manualStepThenRun(t, cfg)
		if c1 != c8 {
			t.Fatalf("%s: cycles: workers=1 %d workers=8 %d", engine, c1, c8)
		}
		if a, b := parStatsSig(g1), parStatsSig(g8); a != b {
			t.Fatalf("%s: stats diverged:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", engine, a, b)
		}
	}
}

// TestAtomicOldValuesUniqueAcrossSMs checks the deferred atomic commit
// itself: with blocks spread over four SMs racing one counter, every
// thread must still observe a distinct old value and the final count
// must be exact.
func TestAtomicOldValuesUniqueAcrossSMs(t *testing.T) {
	const blocks, blockDim = 8, 64
	for _, workers := range []int{1, 8} {
		cfg := tinyConfig()
		cfg.NumSMs = 4
		cfg.Workers = workers
		g := New(cfg)
		if _, err := g.RunKernel(histKernel(0x30000, 0x40000, blockDim, blocks)); err != nil {
			t.Fatal(err)
		}
		n := uint32(blocks * blockDim)
		if got := g.Memory.Load32(0x30000); got != n {
			t.Fatalf("workers=%d: counter = %d, want %d", workers, got, n)
		}
		seen := make(map[uint32]bool)
		for i := uint64(0); i < uint64(n); i++ {
			old := g.Memory.Load32(0x40000 + i*4)
			if old >= n || seen[old] {
				t.Fatalf("workers=%d: thread %d observed duplicate/out-of-range old value %d", workers, i, old)
			}
			seen[old] = true
		}
	}
}
