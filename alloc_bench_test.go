package gpulat

// Allocation benchmarks and the allocation-regression gate for the
// per-cycle hot path. The simulator's steady state — coalescing, cache
// lookups, crossbar arbitration, the full device Step — must not
// allocate: GC pressure is wall-clock cost on every simulated cycle, and
// a single stray make/append in a Tick silently costs more than any
// micro-optimisation saves. The one path that must allocate, the
// tracker storing a load record, must pay for each record once; a
// launched warp must cost the registers its program names, not the
// architectural 64; and a served submit of a finished key must write the
// result bytes its state keeps, not encode them again. BENCH_alloc.json
// pins the budget (allocs/op per benchmark); TestAllocRegression fails
// when a measurement exceeds it. Refresh the baseline with
// `make alloc-baseline` after an intentional change.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"unsafe"

	"gpulat/internal/cache"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/icnt"
	"gpulat/internal/isa"
	"gpulat/internal/kernels"
	"gpulat/internal/mem"
	"gpulat/internal/runner"
	"gpulat/internal/service"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
	"gpulat/internal/warp"
)

const allocBaselineFile = "BENCH_alloc.json"

// allocStat is one benchmark's committed budget.
type allocStat struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// allocCoalesceAccesses builds a fixed 32-lane pattern that exercises
// every coalescer path: stride runs that merge, 8-byte accesses that
// straddle segment boundaries, and duplicate segments out of order.
func allocCoalesceAccesses() []mem.LaneAccess {
	acc := make([]mem.LaneAccess, 32)
	for i := range acc {
		acc[i] = mem.LaneAccess{Lane: i, Addr: uint64(0x1000 + i*40), Size: 8}
	}
	// A few lanes jump backward so sorted insertion shifts.
	acc[7].Addr = 0x40
	acc[19].Addr = 0x48
	acc[31].Addr = 0x1000
	return acc
}

// BenchmarkAllocCoalesce measures a warm per-SM coalescer scratch: the
// per-instruction address-divergence path (tentpole budget: 0 allocs/op).
func BenchmarkAllocCoalesce(b *testing.B) {
	var cs mem.CoalesceScratch
	acc := allocCoalesceAccesses()
	cs.Coalesce(acc, 128) // reach capacity before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Coalesce(acc, 128)
	}
}

// allocCacheState builds a small warm cache plus a private request so
// the benchmark loop exercises miss+fill (MSHR churn, victim scan,
// free-list reuse) without touching the request pool.
func allocCacheState() (*cache.Cache, *mem.Request, []uint64) {
	c := cache.New(cache.Config{
		Name: "bench.l1", Sets: 32, Ways: 4, LineSize: 128,
		Replacement: cache.LRU, Write: cache.WriteBackAlloc,
		MSHREntries: 8, MSHRMaxMerge: 4,
	})
	// More distinct lines than capacity, so the steady state is a miss
	// (with eviction) followed by its fill — the most churn-heavy path.
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(i) * 128
	}
	return c, &mem.Request{Size: 4, Kind: mem.KindLoad, SM: -1, Warp: -1}, addrs
}

// BenchmarkAllocCache measures the steady-state miss+fill cycle on a
// warm cache (tentpole budget: 0 allocs/op after MSHR free-listing).
func BenchmarkAllocCache(b *testing.B) {
	c, req, addrs := allocCacheState()
	cy := sim.Cycle(0)
	step := func() {
		req.Addr = addrs[int(cy)%len(addrs)]
		req.ID = uint64(cy)
		if res := c.Access(cy, req); res.Status == cache.Miss {
			c.Fill(cy, c.BlockAddr(req.Addr))
		}
		cy++
	}
	for i := 0; i < 2*len(addrs); i++ {
		step() // warm: every set filled, MSHR free list populated
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// allocSteadyDevice builds a GF100 device running a pointer chase far
// longer than the measurement window and warms it past every lazy
// capacity growth (queues, scratch buffers, free lists), so each further
// Step is pure steady-state simulation.
func allocSteadyDevice(tb testing.TB) *gpu.GPU {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Engine = sim.EngineTick
	g := gpu.New(cfg)
	wl, err := kernels.PChase(kernels.PChaseConfig{
		Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	wl.Setup(g.Memory)
	if err := g.Launch(wl.Kernel); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		g.Step()
	}
	return g
}

// BenchmarkAllocSMTick measures one full-device cycle — SM cores, both
// networks, partitions, DRAM, dispatch — in steady state (tentpole
// budget: 0 allocs/op).
func BenchmarkAllocSMTick(b *testing.B) {
	g := allocSteadyDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

// allocIdleDevice builds a GF100 device whose pointer chase waits on
// its first DRAM access for good — the column access is stretched past
// any measurement — and steps it until that access is the only work in
// flight. Each further Step is the idle cycle that a latency-bound
// kernel spends most of its time in: one busy SM and one busy partition.
func allocIdleDevice(tb testing.TB) *gpu.GPU {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Engine = sim.EngineTick
	cfg.Partition.DRAM.TCL = 1 << 40
	g := gpu.New(cfg)
	wl, err := kernels.PChase(kernels.PChaseConfig{
		Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	wl.Setup(g.Memory)
	if err := g.Launch(wl.Kernel); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		g.Step()
	}
	inflight := 0
	for i, p := range g.Partitions() {
		inflight += p.DRAM().InflightLen()
		if p.Pending() != p.DRAM().InflightLen()+p.L2().MSHRsInUse() {
			tb.Fatalf("partition %d holds work besides its DRAM access: %s", i, p.DebugState())
		}
	}
	if inflight != 1 {
		tb.Fatalf("%d DRAM accesses in flight after warm-up, want 1", inflight)
	}
	return g
}

// BenchmarkAllocStepIdle measures one tick-engine Step of a GF100
// device idling on one outstanding DRAM access, the case the bench
// ledger reports as gpu.step_ns_cycle.idle (budget: 0 allocs/op).
func BenchmarkAllocStepIdle(b *testing.B) {
	g := allocIdleDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

// allocIssueSM builds one stand-alone GF100 SM holding `resident` warps
// of one block — warp 0 spinning on independent ALU work, every other
// warp parked behind an atomic that is never answered (a load that
// bypasses the L1, so MSHR capacity does not shape the measurement) —
// warmed until every atomic has left the SM. step ticks it one cycle.
func allocIssueSM(tb testing.TB, resident int) (step func()) {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	b := isa.NewBuilder("issue-bench")
	b.S2R(1, isa.SrWarpID).
		ISetpI(0, isa.CmpEQ, 1, 0).
		P(0).Bra("spin").
		Param(2, 0).
		Atom(3, 2, 0, 1).
		IAdd(4, 3, 3). // waits for the atomic forever
		Exit().
		Label("spin")
	for r := isa.Reg(5); r < 13; r++ {
		b.IAddI(r, r, 1)
	}
	k := &sm.Kernel{Program: b.Bra("spin").Build(), Params: []uint32{0x1000},
		BlockDim: resident * cfg.SM.WarpSize, GridDim: 1}
	var seq uint64
	s := sm.New(cfg.SM, mem.NewMemory(), func() uint64 { seq++; return seq }, nil)
	s.LaunchBlock(k, 0, 0)
	c := sim.Cycle(0)
	step = func() {
		for {
			if _, ok := s.PopMiss(c); !ok {
				break
			}
		}
		s.Tick(c)
		s.FlushCycle()
		c++
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	return step
}

// BenchmarkAllocSMIssue measures one stand-alone SM Tick whose work is
// the issue stage: 8, 24 or 48 resident warps of which one can issue.
// ns/op is ns per Tick; it should be roughly flat in the resident-warp
// count, since the warp pick walks ready warps, not warp slots
// (tentpole budget: 0 allocs/op).
func BenchmarkAllocSMIssue(b *testing.B) {
	for _, resident := range []int{8, 24, 48} {
		b.Run(fmt.Sprintf("warps=%d", resident), func(b *testing.B) { benchSMIssue(b, resident) })
	}
}

func benchSMIssue(b *testing.B, resident int) {
	step := allocIssueSM(b, resident)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// allocSaturatedCrossbar builds the GF100 request network's shape (15
// SMs to 6 partitions) and returns a step that offers a packet at every
// input that has room, arbitrates, and drains every output — each cycle
// grants on all six outputs, with mixed sizes so busy windows overlap.
func allocSaturatedCrossbar() (step func()) {
	x := icnt.New(icnt.Config{Name: "bench.req", Inputs: 15, Outputs: 6,
		Latency: 4, FlitBytes: 32, InjectDepth: 8, EjectDepth: 8})
	c := sim.Cycle(0)
	step = func() {
		for i := 0; i < 15; i++ {
			if x.CanInject(i) {
				x.Inject(c, i, icnt.Packet{Dst: (i + int(c)) % 6, Size: 8 + 32*uint32(i%2)})
			}
		}
		x.Tick(c)
		for o := 0; o < 6; o++ {
			x.PopEject(c, o)
		}
		c++
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	return step
}

// BenchmarkAllocIcntTick measures one saturated crossbar cycle —
// injection, arbitration, ejection (budget: 0 allocs/op).
func BenchmarkAllocIcntTick(b *testing.B) {
	step := allocSaturatedCrossbar()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// allocMemSubsystem builds a GF100 memory-system testbench and returns
// a step that offers a 128-byte load at each port with probability 0.02
// and steps it one cycle, warmed past every lazy growth (waiting queues,
// the request pool, partition queues).
func allocMemSubsystem(tb testing.TB) (step func()) {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	ms := gpu.NewMemSubsystem(cfg, nil)
	rng, load := sim.NewRNG(1), 0.02
	threshold := uint64(load * (1 << 53))
	step = func() {
		for port := range cfg.NumSMs {
			if rng.Uint64()>>11 < threshold {
				ms.Inject(port, (rng.Uint64()%(64<<20))&^127, 128)
			}
		}
		ms.Step()
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	return step
}

// BenchmarkAllocMemSubsystemStep measures one warm testbench cycle at
// offered load 0.02: a waiting injection is a queue entry and an
// accepted one a pooled request (budget: 0 allocs/op).
func BenchmarkAllocMemSubsystemStep(b *testing.B) {
	step := allocMemSubsystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// allocTrackedLoad is a completed L1-hit load, reusable: the tracker
// folds it (and, keeping records, reduces it to a LoadRecord) and keeps
// no reference.
func allocTrackedLoad() *mem.Request {
	l := &mem.StageLog{IssueStamp: 40, ReturnStamp: 52}
	l.Mark(mem.PtIssue, 100)
	l.Mark(mem.PtCreated, 102)
	l.Mark(mem.PtL1Access, 118)
	l.Mark(mem.PtReturnSM, 147)
	return &mem.Request{SM: 3, Warp: 7, Log: l}
}

// allocTrackerFold returns a step that folds one load into a tracker
// that keeps no records, as every runner and served job does, warmed
// past the first load of its latency (which makes its cells).
func allocTrackerFold() func() {
	tr, req := core.NewTracker(), allocTrackedLoad()
	fold := func() { tr.RequestDone(147, req) }
	fold()
	return fold
}

// BenchmarkAllocTrackerRequestDone measures folding one load into a
// tracker's cells (budget: 0 allocs/op and 0 B/op).
func BenchmarkAllocTrackerRequestDone(b *testing.B) {
	fold := allocTrackerFold()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold()
	}
}

// trackerRunLen is the loads one measured tracker run takes: a 67k-load
// gather's worth twice over, enough for the growth policy to dominate.
const trackerRunLen = 1 << 17

// trackerRecordBudget is the most a load may cost in allocated bytes on
// a tracker that keeps records, amortised over a long run: a 56-byte
// record (maxLoadRecord) plus 8 bytes of slack for the chunk list and the
// unfilled tail of the last chunk. It is a constant, not derived from the
// record's size, so a field that widens the record fails the gate instead
// of raising it.
const (
	maxLoadRecord       = 56
	trackerRecordBudget = int64(maxLoadRecord + 8)
)

// trackerBytesPerLoad feeds trackerRunLen loads to a tracker made with
// opts and returns the allocations and allocated bytes per load, in
// whole units.
func trackerBytesPerLoad(opts ...core.TrackerOption) (allocs float64, bytes int64) {
	tr, req := core.NewTracker(opts...), allocTrackedLoad()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trackerRunLen; i++ {
		tr.RequestDone(147, req)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / trackerRunLen),
		int64(after.TotalAlloc-before.TotalAlloc) / trackerRunLen
}

// warpLaunchWarps is the block size, in warps, of the launch benchmark.
const warpLaunchWarps = 4

// allocWarpLaunch builds a stand-alone GF100 SM behind a memory stub
// that answers every load at once, with a request pool so only the
// launch allocates, and returns a step that launches one 4-warp block of
// vecadd and ticks it to retirement — warmed past the first launches'
// one-time growth — plus the most a warp may allocate: its register file
// sized by the program ((NumRegs + zero row + immediate row) × WarpSize
// words), the Warp struct, and slack for its one-entry divergence stack
// and size-class rounding.
func allocWarpLaunch(tb testing.TB) (step func(), warpBudget int64) {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	ws := cfg.SM.WarpSize
	wl := kernels.VecAdd(warpLaunchWarps*ws, warpLaunchWarps*ws, 1, 0)
	m := mem.NewMemory()
	wl.Setup(m)
	var seq uint64
	pool := &mem.RequestPool{}
	s := sm.New(cfg.SM, m, func() uint64 { seq++; return seq }, nil)
	s.SetRequestPool(pool)
	var loads []*mem.Request
	c := sim.Cycle(0)
	step = func() {
		s.LaunchBlock(wl.Kernel, 0, 0)
		for s.Busy() || len(loads) > 0 {
			for {
				r, ok := s.PopMiss(c)
				if !ok {
					break
				}
				if r.Kind == mem.KindStore {
					pool.Put(r)
				} else {
					loads = append(loads, r)
				}
			}
			n := 0
			for _, r := range loads {
				if s.CanAcceptResponse() {
					s.AcceptResponse(c, r)
				} else {
					loads[n] = r
					n++
				}
			}
			loads = loads[:n]
			s.Tick(c)
			s.FlushCycle()
			c++
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	// Counted here from the issue requirements, not read from the
	// Program.NumRegs that sizes the file under test.
	var named uint64
	for _, n := range wl.Kernel.Program.Need {
		named |= n.Regs
	}
	return step, int64((bits.OnesCount64(named)+2)*ws*4) + int64(unsafe.Sizeof(warp.Warp{})) + 64
}

// BenchmarkAllocWarpLaunch measures launching one 4-warp block and
// running it to retirement on a stand-alone SM. B/op ÷ 4 is the figure:
// what a resident warp costs the allocator and the collector.
func BenchmarkAllocWarpLaunch(b *testing.B) {
	step, _ := allocWarpLaunch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// warpLaunchBytesPerWarp launches and retires 64 blocks and returns the
// allocated bytes per warp and the per-warp budget.
func warpLaunchBytesPerWarp(tb testing.TB) (bytes, budget int64) {
	step, budget := allocWarpLaunch(tb)
	const launches = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / (launches * warpLaunchWarps), budget
}

// deviceSink keeps the built device live, so the build is not elided.
var deviceSink *gpu.GPU

// allocDeviceNew builds one GF106 device, as a served job does before
// it simulates anything.
func allocDeviceNew(tb testing.TB) (build func()) {
	cfg, err := Preset("GF106")
	if err != nil {
		tb.Fatal(err)
	}
	return func() { deviceSink = gpu.New(cfg) }
}

// BenchmarkAllocDeviceNew measures building a GF106 device: one
// allocation per cache for its lines, not one per set.
func BenchmarkAllocDeviceNew(b *testing.B) {
	build := allocDeviceNew(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// allocSubmitFinished returns one POST /v1/jobs of a finished key,
// answered by NewServer over a Station into a recorder: the submit of a
// warm re-run, whose ticket carries the result's kept wire bytes.
func allocSubmitFinished(tb testing.TB) (submit func()) {
	st := service.NewStation(nil, service.StationConfig{Workers: 1,
		Exec: func(_ context.Context, job runner.Job) runner.Result {
			return runner.Result{Job: job, Metrics: []runner.Metric{{Name: "cycles", Value: 2462}, {Name: "ipc", Value: 0.5}}}
		}})
	tb.Cleanup(st.Close)
	job := runner.Job{Kind: runner.KindDynamic, Arch: "GF106", Kernel: "vecadd", Options: runner.Options{TestScale: true}}
	if _, err := st.Do(context.Background(), job); err != nil {
		tb.Fatal(err)
	}
	srv := service.NewServer(st, nil)
	body, err := json.Marshal(service.SubmitRequest{Jobs: []runner.Job{job}})
	if err != nil {
		tb.Fatal(err)
	}
	submit = func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set(service.TraceHeader, "alloc")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"result":`)) {
			tb.Fatalf("submit of a finished key: HTTP %d %s", w.Code, w.Body)
		}
	}
	submit() // the first answer encodes the result's wire bytes
	return submit
}

// BenchmarkAllocSubmitFinished measures a submit whose ticket is already
// done: the answer carries the bytes the key's state keeps, encoded once.
func BenchmarkAllocSubmitFinished(b *testing.B) {
	submit := allocSubmitFinished(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}

// measureAllocs runs the gated paths under testing.AllocsPerRun.
func measureAllocs(tb testing.TB) map[string]float64 {
	var cs mem.CoalesceScratch
	acc := allocCoalesceAccesses()
	cs.Coalesce(acc, 128)

	c, req, addrs := allocCacheState()
	cy := sim.Cycle(0)
	for i := 0; i < 2*len(addrs); i++ {
		req.Addr = addrs[int(cy)%len(addrs)]
		if res := c.Access(cy, req); res.Status == cache.Miss {
			c.Fill(cy, c.BlockAddr(req.Addr))
		}
		cy++
	}

	g := allocSteadyDevice(tb)
	idle := allocIdleDevice(tb)
	issueStep := allocIssueSM(tb, 48)
	launchStep, _ := allocWarpLaunch(tb)
	memsubStep := allocMemSubsystem(tb)
	const memsubCycles = 1000

	return map[string]float64{
		"BenchmarkAllocCoalesce": testing.AllocsPerRun(200, func() {
			cs.Coalesce(acc, 128)
		}),
		"BenchmarkAllocCache": testing.AllocsPerRun(200, func() {
			req.Addr = addrs[int(cy)%len(addrs)]
			if res := c.Access(cy, req); res.Status == cache.Miss {
				c.Fill(cy, c.BlockAddr(req.Addr))
			}
			cy++
		}),
		"BenchmarkAllocSMTick": testing.AllocsPerRun(200, func() {
			g.Step()
		}),
		"BenchmarkAllocStepIdle":           testing.AllocsPerRun(200, idle.Step),
		"BenchmarkAllocSMIssue":            testing.AllocsPerRun(200, issueStep),
		"BenchmarkAllocIcntTick":           testing.AllocsPerRun(200, allocSaturatedCrossbar()),
		"BenchmarkAllocTrackerRequestDone": testing.AllocsPerRun(200, allocTrackerFold()),
		// Three per warp: the Warp, its register file, its divergence stack.
		"BenchmarkAllocWarpLaunch": testing.AllocsPerRun(50, launchStep),
		"BenchmarkAllocDeviceNew":  testing.AllocsPerRun(20, allocDeviceNew(tb)),
		// The request, its decode, the answer's encode, the instruments.
		"BenchmarkAllocSubmitFinished": testing.AllocsPerRun(200, allocSubmitFinished(tb)),
		// A cycle makes 0.3 injections on average, so a per-cycle count
		// would round an allocating injection down to 0: count windows
		// of memsubCycles cycles and divide.
		"BenchmarkAllocMemSubsystemStep": testing.AllocsPerRun(5, func() {
			for range memsubCycles {
				memsubStep()
			}
		}) / memsubCycles,
	}
}

// TestAllocRegression is the allocation gate: each measured path must
// stay within its committed BENCH_alloc.json budget (exactly zero for a
// zero baseline, 10% headroom otherwise), a load folded into a tracker
// that keeps no records within 0 bytes, a stored load record within
// trackerRecordBudget bytes and a launched warp within the budget
// allocWarpLaunch derives from its program. GPULAT_ALLOC_BASELINE=write
// refreshes the baseline instead of comparing — bytes/op comes from a
// full -benchmem run of the corresponding benchmark.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("steady-state warm-up is too slow for -short")
	}
	measured := measureAllocs(t)
	if allocs, got := trackerBytesPerLoad(); allocs != 0 || got != 0 {
		t.Errorf("BenchmarkAllocTrackerRequestDone: a tracker that keeps no records allocated %.0f times and %d bytes per load; it must keep only per-latency cells", allocs, got)
	}
	if size := unsafe.Sizeof(core.LoadRecord{}); size > maxLoadRecord {
		t.Errorf("core.LoadRecord is %d bytes; the budget is %d", size, maxLoadRecord)
	}
	if _, got := trackerBytesPerLoad(core.KeepRecords); got > trackerRecordBudget {
		t.Errorf("core.KeepRecords: %d bytes allocated per stored record exceeds %d (one %d-byte LoadRecord + slack) — record storage is being re-copied or the record grew",
			got, trackerRecordBudget, maxLoadRecord)
	} else {
		t.Logf("core.KeepRecords: %d bytes per stored record (budget %d)", got, trackerRecordBudget)
	}

	if got, budget := warpLaunchBytesPerWarp(t); got > budget {
		t.Errorf("BenchmarkAllocWarpLaunch: %d bytes allocated per launched warp exceeds %d (register rows for the registers vecadd names + the Warp + slack) — the register file is not sized by the program",
			got, budget)
	} else {
		t.Logf("BenchmarkAllocWarpLaunch: %d bytes per launched warp (budget %d)", got, budget)
	}

	if os.Getenv("GPULAT_ALLOC_BASELINE") == "write" {
		writeAllocBaseline(t, measured)
		return
	}

	data, err := os.ReadFile(allocBaselineFile)
	if err != nil {
		t.Fatalf("no %s (run `make alloc-baseline` to create it): %v", allocBaselineFile, err)
	}
	var baseline map[string]allocStat
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parse %s: %v", allocBaselineFile, err)
	}
	for name, got := range measured {
		base, ok := baseline[name]
		if !ok {
			t.Errorf("%s: missing from %s (run `make alloc-baseline`)", name, allocBaselineFile)
			continue
		}
		limit := base.AllocsPerOp * 1.10
		if got > limit {
			t.Errorf("%s: %.2f allocs/op exceeds baseline %.2f (limit %.2f) — the hot path regressed",
				name, got, base.AllocsPerOp, limit)
		} else {
			t.Logf("%s: %.2f allocs/op (baseline %.2f)", name, got, base.AllocsPerOp)
		}
	}
}

// writeAllocBaseline regenerates BENCH_alloc.json: allocs/op from the
// gate's own measurement, bytes/op from a full benchmark run.
func writeAllocBaseline(t *testing.T, measured map[string]float64) {
	bench := map[string]func(*testing.B){
		"BenchmarkAllocCoalesce": BenchmarkAllocCoalesce,
		"BenchmarkAllocCache":    BenchmarkAllocCache,
		"BenchmarkAllocSMTick":   BenchmarkAllocSMTick,
		"BenchmarkAllocStepIdle": BenchmarkAllocStepIdle,
		"BenchmarkAllocSMIssue":  func(b *testing.B) { benchSMIssue(b, 48) },

		"BenchmarkAllocIcntTick":           BenchmarkAllocIcntTick,
		"BenchmarkAllocMemSubsystemStep":   BenchmarkAllocMemSubsystemStep,
		"BenchmarkAllocTrackerRequestDone": BenchmarkAllocTrackerRequestDone,
		"BenchmarkAllocWarpLaunch":         BenchmarkAllocWarpLaunch,
		"BenchmarkAllocDeviceNew":          BenchmarkAllocDeviceNew,
		"BenchmarkAllocSubmitFinished":     BenchmarkAllocSubmitFinished,
	}
	out := make(map[string]allocStat, len(measured))
	for name, allocs := range measured {
		r := testing.Benchmark(bench[name])
		out[name] = allocStat{AllocsPerOp: allocs, BytesPerOp: r.AllocedBytesPerOp()}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(allocBaselineFile, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", allocBaselineFile, data)
}
