package gpu

import (
	"testing"

	"gpulat/internal/cache"
	"gpulat/internal/dram"
	"gpulat/internal/icnt"
	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/mempart"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// tinyConfig is a small but complete GPU for integration tests.
func tinyConfig() Config {
	return Config{
		Name: "tiny",
		SM: sm.Config{
			WarpSize: 32, MaxWarps: 8, MaxBlocks: 2, Scheduler: sm.LRR,
			IssueWidth: 1, ALULatency: 4, BranchLatency: 2,
			LDSTIssueLatency: 3, LDSTQueueDepth: 4, CoalesceSegment: 128,
			L1Enabled: true, L1LocalEnabled: true,
			L1: cache.Config{
				Sets: 16, Ways: 4, LineSize: 128, Replacement: cache.LRU,
				Write: cache.WriteThroughNoAlloc, MSHREntries: 8,
				MSHRMaxMerge: 4, HitLatency: 2,
			},
			MissQueueDepth: 8, ResponseQueueDepth: 8, WritebackLatency: 3,
			SharedLatency: 5, SharedBanks: 32,
		},
		NumSMs: 2,
		Partition: mempart.Config{
			ROPLatency: 10, ROPQueueDepth: 8, L2QueueDepth: 8,
			L2Enabled: true,
			L2: cache.Config{
				Sets: 64, Ways: 8, LineSize: 128, Replacement: cache.LRU,
				Write: cache.WriteBackAlloc, MSHREntries: 16,
				MSHRMaxMerge: 8, HitLatency: 8,
			},
			DRAM: dram.Config{
				Banks: 4, RowBytes: 2048, TRCD: 10, TRP: 10, TCL: 12,
				TRAS: 25, TWR: 8, BurstCycles: 4, QueueDepth: 16,
				Scheduler: dram.FRFCFS,
			},
			ReturnQueueDepth: 8,
		},
		NumPartitions:       2,
		RequestNet:          icnt.Config{Latency: 5, FlitBytes: 32, InjectDepth: 4, EjectDepth: 4},
		ReplyNet:            icnt.Config{Latency: 5, FlitBytes: 32, InjectDepth: 4, EjectDepth: 4},
		PartitionInterleave: 256,
		ControlPacketBytes:  8,
		DataPacketBytes:     128,
		MaxCycles:           5_000_000,
	}
}

// vecIncKernel computes out[i] = in[i] + 1 over n elements.
func vecIncKernel(inAddr, outAddr uint32, n int, blockDim int) *sm.Kernel {
	b := isa.NewBuilder("vecinc")
	b.S2R(1, isa.SrTID).
		S2R(2, isa.SrCTAID).
		S2R(3, isa.SrNTID).
		IMad(4, 2, 3, 1).                  // gid = ctaid*ntid + tid
		ISetpI(0, isa.CmpGE, 4, int32(n)). // bounds check
		P(0).Exit().                       // excess threads exit
		ShlI(5, 4, 2).                     // gid*4
		Param(6, 0).
		IAdd(6, 6, 5).
		Ldg(7, 6, 0).
		IAddI(7, 7, 1).
		Param(8, 1).
		IAdd(8, 8, 5).
		Stg(8, 0, 7).
		Exit()
	grid := (n + blockDim - 1) / blockDim
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{inAddr, outAddr},
		BlockDim: blockDim,
		GridDim:  grid,
	}
}

func TestVectorIncrementEndToEnd(t *testing.T) {
	const n = 512
	g := New(tinyConfig())
	for i := uint64(0); i < n; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i*7))
	}
	cycles, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, n, 128))
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("zero cycles")
	}
	for i := uint64(0); i < n; i++ {
		if got := g.Memory.Load32(0x20000 + i*4); got != uint32(i*7+1) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i*7+1)
		}
	}
	// Work must have spread across both SMs.
	if g.SMs()[0].Stats().InstIssued == 0 || g.SMs()[1].Stats().InstIssued == 0 {
		t.Fatal("blocks not distributed across SMs")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Cycle, uint64) {
		g := New(tinyConfig())
		for i := uint64(0); i < 256; i++ {
			g.Memory.Store32(0x10000+i*4, uint32(i))
		}
		cyc, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, 256, 64))
		if err != nil {
			t.Fatal(err)
		}
		var inst uint64
		for _, s := range g.SMs() {
			inst += s.Stats().InstIssued
		}
		return cyc, inst
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("non-deterministic: run1=(%d,%d) run2=(%d,%d)", c1, i1, c2, i2)
	}
}

func TestStageLogsCompleteAndMonotonic(t *testing.T) {
	col := &collector{}
	g := NewWithObservers(tinyConfig(), col, nil)
	for i := uint64(0); i < 256; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i))
	}
	if _, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, 256, 64)); err != nil {
		t.Fatal(err)
	}
	if len(col.reqs) == 0 {
		t.Fatal("no tracked requests observed")
	}
	for i := range col.reqs {
		lg := &col.reqs[i].Log
		if !lg.Complete() {
			t.Fatalf("incomplete log: %v", lg)
		}
		if !lg.Monotonic() {
			t.Fatalf("non-monotonic log: %v", lg)
		}
	}
}

// collector snapshots completed requests by value: per the Observer
// contract the request and its Log are recycled right after RequestDone
// returns, so retaining the pointers would read recycled objects.
type reqRecord struct {
	Addr   uint64
	Kernel int
	Log    mem.StageLog
}

type collector struct{ reqs []reqRecord }

func (c *collector) RequestDone(_ sim.Cycle, r *mem.Request) {
	c.reqs = append(c.reqs, reqRecord{Addr: r.Addr, Kernel: r.Kernel, Log: *r.Log})
}

func TestIssueObserverFires(t *testing.T) {
	cnt := &issueCounter{}
	g := NewWithObservers(tinyConfig(), nil, cnt)
	for i := uint64(0); i < 128; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i))
	}
	if _, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, 128, 64)); err != nil {
		t.Fatal(err)
	}
	if cnt.slots == 0 || cnt.issued == 0 {
		t.Fatalf("issue observer: slots=%d issued=%d", cnt.slots, cnt.issued)
	}
	if cnt.issued > cnt.slots {
		t.Fatal("issued more instruction slots than observed cycles")
	}
}

type issueCounter struct {
	slots  uint64
	issued uint64
}

func (ic *issueCounter) IssueSlot(_ int, _ sim.Cycle, n int) {
	ic.slots++
	ic.issued += uint64(n)
}

func TestSequentialKernelsShareCaches(t *testing.T) {
	g := New(tinyConfig())
	for i := uint64(0); i < 64; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i))
	}
	if _, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, 64, 64)); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := g.SMs()[0].Stats().L1Misses
	if _, err := g.RunKernel(vecIncKernel(0x10000, 0x30000, 64, 64)); err != nil {
		t.Fatal(err)
	}
	// Second kernel reloads the same input lines on the same SM: loads
	// must hit. Only its stores (two fresh 128B output segments, write-
	// through/no-allocate) may add misses.
	if g.SMs()[0].Stats().L1Misses > missesAfterFirst+2 {
		t.Fatalf("second kernel missed again: %d → %d", missesAfterFirst, g.SMs()[0].Stats().L1Misses)
	}
	if g.SMs()[0].Stats().L1Hits == 0 {
		t.Fatal("no L1 hits on rerun")
	}
}

func TestOversizedBlockLaunchError(t *testing.T) {
	g := New(tinyConfig())
	k := vecIncKernel(0x1000, 0x2000, 32, 32)
	k.BlockDim = 8 * 32 * 2 // more warps than MaxWarps
	if err := g.Launch(k); err == nil {
		t.Fatal("expected launch error for oversized block")
	}
	if _, err := g.RunKernel(k); err == nil {
		t.Fatal("expected RunKernel to surface the launch error")
	}
}

func TestInvalidGridLaunchError(t *testing.T) {
	g := New(tinyConfig())
	for _, mod := range []func(*sm.Kernel){
		func(k *sm.Kernel) { k.GridDim = 0 },
		func(k *sm.Kernel) { k.GridDim = -3 },
		func(k *sm.Kernel) { k.BlockDim = 0 },
	} {
		k := vecIncKernel(0x1000, 0x2000, 32, 32)
		mod(k)
		if err := g.Launch(k); err == nil {
			t.Fatalf("expected launch error for grid=%d block=%d", k.GridDim, k.BlockDim)
		}
	}
	// The failed launches must not have enqueued anything.
	if !g.Done() {
		t.Fatal("device not idle after rejected launches")
	}
}

// TestConcurrentKernelsOnStreams co-runs two kernels with disjoint data
// on independent streams and checks functional correctness plus the
// per-kernel/device stats reconciliation the dispatcher guarantees.
func TestConcurrentKernelsOnStreams(t *testing.T) {
	for _, placement := range []sched.Placement{sched.PlacementShared, sched.PlacementSpatial} {
		t.Run(placement.String(), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Placement = placement
			g := New(cfg)
			const n = 256
			for i := uint64(0); i < n; i++ {
				g.Memory.Store32(0x10000+i*4, uint32(i))
				g.Memory.Store32(0x50000+i*4, uint32(i*3))
			}
			ka, err := g.Enqueue("A", vecIncKernel(0x10000, 0x20000, n, 64))
			if err != nil {
				t.Fatal(err)
			}
			kb, err := g.Enqueue("B", vecIncKernel(0x50000, 0x60000, n, 64))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Run(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < n; i++ {
				if got := g.Memory.Load32(0x20000 + i*4); got != uint32(i+1) {
					t.Fatalf("A out[%d] = %d, want %d", i, got, i+1)
				}
				if got := g.Memory.Load32(0x60000 + i*4); got != uint32(i*3+1) {
					t.Fatalf("B out[%d] = %d, want %d", i, got, i*3+1)
				}
			}
			if !ka.Done() || !kb.Done() {
				t.Fatal("kernels not marked complete")
			}
			// Per-kernel stats must sum to the device totals.
			st := g.Stats()
			var blocks, launched int
			for _, ks := range g.Dispatcher().Kernels() {
				ks2 := ks.Stats()
				if ks2.BlocksDispatched != ks2.BlocksRetired || ks2.BlocksDispatched != ks.Kernel.GridDim {
					t.Fatalf("kernel %d: dispatched %d retired %d grid %d",
						ks.ID, ks2.BlocksDispatched, ks2.BlocksRetired, ks.Kernel.GridDim)
				}
				if ks.CyclesResident() <= 0 {
					t.Fatalf("kernel %d: zero residency", ks.ID)
				}
				blocks += ks2.BlocksDispatched
				launched++
			}
			if uint64(blocks) != st.BlocksDispatch {
				t.Fatalf("per-kernel blocks %d != device BlocksDispatch %d", blocks, st.BlocksDispatch)
			}
			if uint64(launched) != st.KernelsLaunched {
				t.Fatalf("per-kernel launches %d != device KernelsLaunched %d", launched, st.KernelsLaunched)
			}
			if placement == sched.PlacementSpatial {
				// Spatial on 2 SMs: stream A owns SM 0, stream B owns SM 1.
				for _, smID := range ka.Placements() {
					if smID != 0 {
						t.Fatalf("stream A block on SM %d under spatial placement", smID)
					}
				}
				for _, smID := range kb.Placements() {
					if smID != 1 {
						t.Fatalf("stream B block on SM %d under spatial placement", smID)
					}
				}
			}
		})
	}
}

// TestConcurrentKernelTagging checks per-kernel request attribution: all
// tracked loads of each co-resident kernel carry that kernel's ID.
func TestConcurrentKernelTagging(t *testing.T) {
	col := &collector{}
	g := NewWithObservers(tinyConfig(), col, nil)
	const n = 128
	for i := uint64(0); i < n; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i))
		g.Memory.Store32(0x50000+i*4, uint32(i))
	}
	ka, err := g.Enqueue("A", vecIncKernel(0x10000, 0x20000, n, 64))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := g.Enqueue("B", vecIncKernel(0x50000, 0x60000, n, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, r := range col.reqs {
		seen[r.Kernel]++
		switch r.Kernel {
		case ka.ID:
			if r.Addr < 0x10000 || r.Addr >= 0x30000 {
				t.Fatalf("kernel A request at %#x outside its data", r.Addr)
			}
		case kb.ID:
			if r.Addr < 0x50000 || r.Addr >= 0x70000 {
				t.Fatalf("kernel B request at %#x outside its data", r.Addr)
			}
		default:
			t.Fatalf("request tagged with unknown kernel %d", r.Kernel)
		}
	}
	if seen[ka.ID] == 0 || seen[kb.ID] == 0 {
		t.Fatalf("missing tracked loads per kernel: %v", seen)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumSMs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cfg)
}

// histKernel has every thread of the grid atomically bump one shared
// counter and record the old value — the worst case for cross-SM
// same-cycle effects, which the deferred commit serializes in SM index
// order.
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

// TestAtomicOldValuesUniqueAcrossSMs checks the deferred atomic commit
// itself: with blocks spread over four SMs racing one counter, every
// thread must still observe a distinct old value and the final count
// must be exact.
func TestAtomicOldValuesUniqueAcrossSMs(t *testing.T) {
	const blocks, blockDim = 8, 64
	cfg := tinyConfig()
	cfg.NumSMs = 4
	g := New(cfg)
	if _, err := g.RunKernel(histKernel(0x30000, 0x40000, blockDim, blocks)); err != nil {
		t.Fatal(err)
	}
	n := uint32(blocks * blockDim)
	if got := g.Memory.Load32(0x30000); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	seen := make(map[uint32]bool)
	for i := uint64(0); i < uint64(n); i++ {
		old := g.Memory.Load32(0x40000 + i*4)
		if old >= n || seen[old] {
			t.Fatalf("thread %d observed duplicate/out-of-range old value %d", i, old)
		}
		seen[old] = true
	}
}
