package kernels

import (
	"testing"
	"testing/quick"

	"gpulat/internal/cache"
	"gpulat/internal/dram"
	"gpulat/internal/gpu"
	"gpulat/internal/icnt"
	"gpulat/internal/isa"
	"gpulat/internal/mempart"
	"gpulat/internal/sm"
)

// testGPU builds a small but complete device for workload verification.
func testGPU() *gpu.GPU {
	return gpu.New(gpu.Config{
		Name: "ktest",
		SM: sm.Config{
			WarpSize: 32, MaxWarps: 16, MaxBlocks: 4, Scheduler: sm.LRR,
			IssueWidth: 2, ALULatency: 4, BranchLatency: 2,
			LDSTIssueLatency: 3, LDSTQueueDepth: 8, CoalesceSegment: 128,
			L1Enabled: true, L1LocalEnabled: true,
			L1: cache.Config{
				Sets: 32, Ways: 4, LineSize: 128, Replacement: cache.LRU,
				Write: cache.WriteThroughNoAlloc, MSHREntries: 16,
				MSHRMaxMerge: 8, HitLatency: 2,
			},
			MissQueueDepth: 16, ResponseQueueDepth: 16, WritebackLatency: 3,
			SharedLatency: 5, SharedBanks: 32,
		},
		NumSMs: 4,
		Partition: mempart.Config{
			ROPLatency: 8, ROPQueueDepth: 16, L2QueueDepth: 16,
			L2Enabled: true,
			L2: cache.Config{
				Sets: 128, Ways: 8, LineSize: 128, Replacement: cache.LRU,
				Write: cache.WriteBackAlloc, MSHREntries: 32,
				MSHRMaxMerge: 8, HitLatency: 8,
			},
			DRAM: dram.Config{
				Banks: 8, RowBytes: 2048, TRCD: 10, TRP: 10, TCL: 12,
				TRAS: 25, TWR: 8, BurstCycles: 4, QueueDepth: 32,
				Scheduler: dram.FRFCFS,
			},
			ReturnQueueDepth: 16,
		},
		NumPartitions:       2,
		RequestNet:          icnt.Config{Latency: 4, FlitBytes: 32, InjectDepth: 8, EjectDepth: 8},
		ReplyNet:            icnt.Config{Latency: 4, FlitBytes: 32, InjectDepth: 8, EjectDepth: 8},
		PartitionInterleave: 256,
		ControlPacketBytes:  8,
		DataPacketBytes:     128,
		MaxCycles:           20_000_000,
	})
}

// TestCatalogWorkloadsVerify runs every catalog workload end to end on
// the test GPU and checks functional output.
func TestCatalogWorkloadsVerify(t *testing.T) {
	for _, name := range CatalogNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl, err := NewByName(name, ScaleTest, 7)
			if err != nil {
				t.Fatal(err)
			}
			g := testGPU()
			cycles, err := Run(g, wl)
			if err != nil {
				t.Fatal(err)
			}
			if cycles == 0 {
				t.Fatal("zero cycles")
			}
		})
	}
}

// TestCatalogProgramsNameFewRegisters pins what sizes a warp's register
// file: every catalog program names a dozen registers at most (its
// highest index + 1 is 62 wherever gidPrologue's R60/R61 temporaries
// appear) and the rows are dense, in index order.
func TestCatalogProgramsNameFewRegisters(t *testing.T) {
	for _, name := range CatalogNames() {
		wl, err := NewByName(name, ScaleTest, 7)
		if err != nil {
			t.Fatal(err)
		}
		p := wl.Kernel.Program
		if p.NumRegs < 3 || p.NumRegs > 12 {
			t.Errorf("%s names %d registers, want 3..12", name, p.NumRegs)
		}
		next := uint8(1)
		for r, row := range p.RegRow {
			if row != 0 && row != next {
				t.Fatalf("%s: R%d has row %d, want %d", name, r, row, next)
			}
			if row != 0 {
				next++
			}
		}
		if int(next)-1 != p.NumRegs || p.RegRow[isa.RZ] != 0 {
			t.Errorf("%s: %d rows mapped for NumRegs %d, RZ on row %d", name, next-1, p.NumRegs, p.RegRow[isa.RZ])
		}
	}
}

func TestNewByNameUnknown(t *testing.T) {
	if _, err := NewByName("nope", ScaleTest, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPChaseValidation(t *testing.T) {
	bad := []PChaseConfig{
		{Base: 0, StrideBytes: 128, FootprintBytes: 4096, Accesses: 16},
		{Base: 0x1000, StrideBytes: 2, FootprintBytes: 4096, Accesses: 16},
		{Base: 0x1000, StrideBytes: 128, FootprintBytes: 64, Accesses: 16},
		{Base: 0x1000, StrideBytes: 128, FootprintBytes: 4096, Accesses: 0},
	}
	for i, cfg := range bad {
		if _, err := PChase(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPChaseRingSetup(t *testing.T) {
	cfg := PChaseConfig{Base: 0x1000, StrideBytes: 256, FootprintBytes: 1024, Accesses: 7}
	wl, err := PChase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := testGPU()
	wl.Setup(g.Memory)
	// Ring: 4 elements; element i points to i+1 mod 4.
	for i := uint64(0); i < 4; i++ {
		got := g.Memory.Load32(0x1000 + i*256)
		want := uint32(0x1000 + (i+1)%4*256)
		if got != want {
			t.Fatalf("ring[%d] = %#x, want %#x", i, got, want)
		}
	}
	if _, err := Run(g, wl); err != nil {
		t.Fatal(err)
	}
}

// TestPChaseSetupWritesWhatTheChaseReads: Setup writes the ring's first
// min(n, Accesses) elements, the ones a run of Accesses loads reads, and
// no more, and the run still ends on the right pointer. With one element
// a page, the pages the memory allocates count the elements written.
func TestPChaseSetupWritesWhatTheChaseReads(t *testing.T) {
	const n, page = 24, 4096
	for _, accesses := range []int{1, 7, n, n + 5, 3*n + 2} {
		wl, err := PChase(PChaseConfig{Base: 0x10000, StrideBytes: page, FootprintBytes: n * page, Accesses: accesses})
		if err != nil {
			t.Fatal(err)
		}
		g := testGPU()
		wl.Setup(g.Memory)
		if got, want := g.Memory.Footprint(), uint64(min(n, accesses)*page); got != want {
			t.Fatalf("%d accesses of a %d-element ring: setup wrote %d bytes of pages, want %d", accesses, n, got, want)
		}
		if _, err := Run(g, wl); err != nil {
			t.Fatalf("%d accesses of a %d-element ring: %v", accesses, n, err)
		}
	}
}

func TestBFSMatchesCPUReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"uniform", GenUniformRandom(512, 4, 11)},
		{"scalefree", GenScaleFree(512, 3, 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk, err := BFS(BFSConfig{Graph: tc.g, Source: 0, BlockDim: 64})
			if err != nil {
				t.Fatal(err)
			}
			g := testGPU()
			_, iters, err := RunMulti(g, mk)
			if err != nil {
				t.Fatal(err)
			}
			if iters < 2 {
				t.Fatalf("BFS converged in %d iterations", iters)
			}
		})
	}
}

func TestBFSBadConfig(t *testing.T) {
	g := GenUniformRandom(64, 2, 1)
	if _, err := BFS(BFSConfig{Graph: nil}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := BFS(BFSConfig{Graph: g, Source: -1}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := BFS(BFSConfig{Graph: g, Source: 64}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestGraphGenerators(t *testing.T) {
	u := GenUniformRandom(1000, 8, 3)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.Edges() < 1000 {
		t.Fatalf("uniform graph too sparse: %d edges", u.Edges())
	}
	s := GenScaleFree(1000, 4, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scale-free: max degree should far exceed the mean.
	maxDeg, sum := 0, 0
	for v := 0; v < s.N; v++ {
		d := int(s.RowOff[v+1] - s.RowOff[v])
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := sum / s.N
	if maxDeg < 4*mean {
		t.Fatalf("degree distribution not skewed: max %d, mean %d", maxDeg, mean)
	}
}

func TestGraphDeterminism(t *testing.T) {
	a := GenScaleFree(500, 3, 99)
	b := GenScaleFree(500, 3, 99)
	if a.Edges() != b.Edges() {
		t.Fatal("same-seed graphs differ")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("same-seed graphs differ in edges")
		}
	}
}

// Property: CPU BFS levels are consistent — every edge spans at most one
// level, and every reached vertex (except the source) has a predecessor
// one level earlier.
func TestCPUBFSProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := GenUniformRandom(200, 3, seed)
		lv := CPUBFS(g, 0)
		if lv[0] != 0 {
			return false
		}
		for v := 0; v < g.N; v++ {
			if lv[v] == Unreached {
				continue
			}
			for _, w := range g.Col[g.RowOff[v]:g.RowOff[v+1]] {
				if lv[w] == Unreached || lv[w] > lv[v]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphGeneratorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { GenUniformRandom(1, 2, 1) },
		func() { GenUniformRandom(10, 0, 1) },
		func() { GenScaleFree(3, 3, 1) },
		func() { GenScaleFree(10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWorkloadConstructorsValidate(t *testing.T) {
	if _, err := Reduce(100, 30, 1, 0); err == nil {
		t.Error("non-power-of-two blockDim accepted")
	}
	if _, err := Reduce(100, 64, 1, 0); err == nil {
		t.Error("n not multiple of blockDim accepted")
	}
	if _, err := SpMV(1, 1, 1, 0); err == nil {
		t.Error("degenerate spmv accepted")
	}
	if _, err := Stencil2D(5, 1, 0); err == nil {
		t.Error("non-power-of-two stencil accepted")
	}
	if _, err := Transpose(6, 1, 0); err == nil {
		t.Error("non-power-of-two transpose accepted")
	}
	if _, err := Histogram(100, 100, 32, 1, 0); err == nil {
		t.Error("non-power-of-two bins accepted")
	}
}
