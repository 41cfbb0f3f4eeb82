package sched

import (
	"testing"

	"gpulat/internal/cache"
	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sm"
)

// testSMs builds n minimal SMs (2 block slots, 8 warp slots each).
func testSMs(n int) []*sm.SM {
	var id uint64
	newID := func() uint64 { id++; return id }
	memory := mem.NewMemory()
	sms := make([]*sm.SM, n)
	for i := range sms {
		cfg := sm.Config{
			ID: i, WarpSize: 32, MaxWarps: 8, MaxBlocks: 2, Scheduler: sm.LRR,
			IssueWidth: 1, ALULatency: 4, BranchLatency: 2,
			LDSTIssueLatency: 3, LDSTQueueDepth: 4, CoalesceSegment: 128,
			L1Enabled: true, L1LocalEnabled: true,
			L1: cache.Config{
				Name: "l1", Sets: 16, Ways: 4, LineSize: 128,
				Replacement: cache.LRU, Write: cache.WriteThroughNoAlloc,
				MSHREntries: 8, MSHRMaxMerge: 4, HitLatency: 2,
			},
			MissQueueDepth: 8, ResponseQueueDepth: 8, WritebackLatency: 3,
			SharedLatency: 5, SharedBanks: 32,
		}
		sms[i] = sm.New(cfg, memory, newID, nil)
	}
	return sms
}

// testKernel builds a trivial one-warp-per-block kernel of the given
// grid size.
func testKernel(grid int) *sm.Kernel {
	b := isa.NewBuilder("noop")
	b.Exit()
	return &sm.Kernel{Program: b.Build(), BlockDim: 32, GridDim: grid}
}

func TestBreadthFirstFillOrder(t *testing.T) {
	// 8 blocks across 4 SMs with 2 slots each must fill round-robin:
	// block i lands on SM i%4, never depth-first on SM 0.
	d := NewDispatcher(testSMs(4), PlacementShared)
	ks, err := d.Enqueue(DefaultStream, testKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(0, 0)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	got := ks.Placements()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d placed on SM %d, want %d (placements %v)", i, got[i], want[i], want)
		}
	}
	if ks.Stats().BlocksDispatched != 8 || d.BlocksDispatched() != 8 {
		t.Fatalf("blocks dispatched: kernel %d, device %d, want 8",
			ks.Stats().BlocksDispatched, d.BlocksDispatched())
	}
}

func TestSharedPlacementInterleavesStreams(t *testing.T) {
	// Two streams under shared placement share the rotating cursor, so
	// a simultaneous fill alternates SMs between them instead of letting
	// the first stream monopolize the low-numbered SMs.
	d := NewDispatcher(testSMs(4), PlacementShared)
	ka, err := d.Enqueue("A", testKernel(2))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := d.Enqueue("B", testKernel(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(0, 0)
	wantA, wantB := []int{0, 2}, []int{1, 3}
	for i, w := range wantA {
		if ka.Placements()[i] != w {
			t.Fatalf("stream A placements %v, want %v", ka.Placements(), wantA)
		}
	}
	for i, w := range wantB {
		if kb.Placements()[i] != w {
			t.Fatalf("stream B placements %v, want %v", kb.Placements(), wantB)
		}
	}
}

func TestSpatialPlacementStaysInSlice(t *testing.T) {
	// Two streams over 5 SMs slice as [0,2) and [2,5); blocks must never
	// land outside their stream's slice even when the grid oversubscribes
	// the slice (the excess stays pending, it does not spill).
	d := NewDispatcher(testSMs(5), PlacementSpatial)
	ka, err := d.Enqueue("A", testKernel(16))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := d.Enqueue("B", testKernel(16))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(0, 0)
	for _, smID := range ka.Placements() {
		if smID < 0 || smID >= 2 {
			t.Fatalf("stream A block on SM %d, outside slice [0,2)", smID)
		}
	}
	for _, smID := range kb.Placements() {
		if smID < 2 || smID >= 5 {
			t.Fatalf("stream B block on SM %d, outside slice [2,5)", smID)
		}
	}
	// Slice capacity: 2 SMs x 2 slots and 3 SMs x 2 slots.
	if got := ka.Stats().BlocksDispatched; got != 4 {
		t.Fatalf("stream A dispatched %d blocks, want its slice capacity 4", got)
	}
	if got := kb.Stats().BlocksDispatched; got != 6 {
		t.Fatalf("stream B dispatched %d blocks, want its slice capacity 6", got)
	}
}

func TestEnqueueValidation(t *testing.T) {
	d := NewDispatcher(testSMs(2), PlacementShared)
	for _, k := range []*sm.Kernel{
		{Program: testKernel(1).Program, BlockDim: 32, GridDim: 0},
		{Program: testKernel(1).Program, BlockDim: 0, GridDim: 1},
		{Program: testKernel(1).Program, BlockDim: 32 * 9, GridDim: 1}, // > MaxWarps
	} {
		if _, err := d.Enqueue(DefaultStream, k); err == nil {
			t.Fatalf("expected error for grid=%d block=%d", k.GridDim, k.BlockDim)
		}
	}
	if len(d.Kernels()) != 0 {
		t.Fatal("rejected kernels must not be enqueued")
	}
}

func TestSpatialRejectsNewStreamWhileResident(t *testing.T) {
	// Spatial slices depend on the stream count: creating a stream after
	// dispatch has begun would shift every slice under the resident
	// blocks, so it must be rejected until the device drains.
	d := NewDispatcher(testSMs(4), PlacementSpatial)
	k1, err := d.Enqueue(DefaultStream, testKernel(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(0, 0)
	if _, err := d.Enqueue("late", testKernel(1)); err == nil {
		t.Fatal("expected error: new spatial stream while kernels are resident")
	}
	// Existing streams keep accepting.
	if _, err := d.Enqueue(DefaultStream, testKernel(1)); err != nil {
		t.Fatal(err)
	}
	// Drain the resident kernel; new streams become legal again.
	d.NoteBlockRetired(5, k1.ID)
	d.NoteBlockRetired(6, k1.ID)
	if _, err := d.Enqueue("late", testKernel(1)); err != nil {
		t.Fatalf("drained device must accept a new stream: %v", err)
	}
}

func TestSpatialRejectsMoreStreamsThanSMs(t *testing.T) {
	d := NewDispatcher(testSMs(2), PlacementSpatial)
	if _, err := d.Enqueue("s0", testKernel(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Enqueue("s1", testKernel(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Enqueue("s2", testKernel(1)); err == nil {
		t.Fatal("expected error for third stream on a 2-SM device")
	}
	// Re-enqueueing on an existing stream stays fine.
	if _, err := d.Enqueue("s0", testKernel(1)); err != nil {
		t.Fatal(err)
	}
}

func TestStreamKernelsRunInOrder(t *testing.T) {
	// Two kernels on one stream: the second must not dispatch until the
	// first fully retires.
	d := NewDispatcher(testSMs(1), PlacementShared)
	k1, err := d.Enqueue(DefaultStream, testKernel(1))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := d.Enqueue(DefaultStream, testKernel(1))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(0, 0)
	if k1.Stats().BlocksDispatched != 1 {
		t.Fatal("head kernel did not dispatch")
	}
	if k2.Stats().BlocksDispatched != 0 {
		t.Fatal("queued kernel dispatched before its predecessor completed")
	}
	if d.Done() {
		t.Fatal("dispatcher done with work pending")
	}
	// Note: the test SM really holds the block, but retiring it requires
	// ticking the core; stand in for the SM by reporting the retire
	// directly (the block slot stays occupied, which is irrelevant here —
	// k2 fits in the second slot).
	d.NoteBlockRetired(10, k1.ID)
	if !k1.Done() || k1.CyclesResident() != 10 {
		t.Fatalf("k1 done=%v resident=%d, want done at cycle 10", k1.Done(), k1.CyclesResident())
	}
	d.Dispatch(10, 10)
	if k2.Stats().BlocksDispatched != 1 || k2.Stats().LaunchedAt != 10 {
		t.Fatalf("successor kernel: %+v, want dispatched at 10", k2.Stats())
	}
	if d.KernelsLaunched() != 2 {
		t.Fatalf("KernelsLaunched = %d, want 2", d.KernelsLaunched())
	}
}

func TestPlacementParseAndJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{{"", PlacementShared}, {"shared", PlacementShared}, {"SPATIAL", PlacementSpatial}} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePlacement(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePlacement("striped"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	data, err := PlacementSpatial.MarshalJSON()
	if err != nil || string(data) != `"spatial"` {
		t.Fatalf("MarshalJSON = %s, %v", data, err)
	}
	var p Placement
	if err := p.UnmarshalJSON([]byte(`"spatial"`)); err != nil || p != PlacementSpatial {
		t.Fatalf("UnmarshalJSON: %v, %v", p, err)
	}
}
