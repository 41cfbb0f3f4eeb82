package main

// Direct-call measurements of the simulator's layers: each function
// drives one package through its exported API with a fixed input, the
// way that package's own tests and allocation benchmarks do.

import (
	"context"
	"fmt"
	"io"
	"time"

	"gpulat/internal/cache"
	"gpulat/internal/core"
	"gpulat/internal/dram"
	"gpulat/internal/gpu"
	"gpulat/internal/icnt"
	"gpulat/internal/kernels"
	"gpulat/internal/mem"
	"gpulat/internal/mempart"
	"gpulat/internal/runner"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// sink keeps results the compiler could otherwise discard.
var sink uint64

func ledgerSim(e *env, budget time.Duration, set func(string, float64)) {
	gf100 := mustConfig("GF100")

	// sim.Scheduler with a GF100's 21 subscribers (15 SMs, 6 partitions;
	// the networks add two more in the device): a mid-cycle wake, the
	// end-of-cycle re-arm and the next-wake scan.
	sc := sim.NewScheduler("bench")
	for i := 0; i < 21; i++ {
		sc.Register(fmt.Sprintf("c%d", i))
	}
	set("sim.sched.rearm_ns_op", nsPerOp(budget, 4096, func(i int) {
		id := i % 21
		sc.WakeAt(id, sim.Cycle(i+3))
		sc.Rearm(id, sim.Cycle(i+9))
		sink += uint64(sc.NextWake())
	}))

	// An empty phase barrier at the host's width.
	pool := sim.NewPool(e.nproc)
	nop := func(int) {}
	set("sim.pool.run_ns_op", nsPerOp(budget, 1024, func(int) { pool.Run(e.nproc, nop) }))
	pool.Close()

	// The coalescer on a 32-lane pattern that exercises every path:
	// merging stride runs, straddled segments, out-of-order duplicates.
	var cs mem.CoalesceScratch
	acc := make([]mem.LaneAccess, 32)
	for i := range acc {
		acc[i] = mem.LaneAccess{Lane: i, Addr: uint64(0x1000 + i*40), Size: 8}
	}
	acc[7].Addr, acc[19].Addr, acc[31].Addr = 0x40, 0x48, 0x1000
	set("mem.coalesce_ns_op", nsPerOp(budget, 2048, func(int) {
		sink += uint64(len(cs.Coalesce(acc, 128).Segments))
	}))

	// A cache in miss+fill steady state: more lines than capacity.
	c := cache.New(cache.Config{
		Name: "bench.l1", Sets: 32, Ways: 4, LineSize: 128,
		Replacement: cache.LRU, Write: cache.WriteBackAlloc,
		MSHREntries: 8, MSHRMaxMerge: 4,
	})
	creq := &mem.Request{Size: 4, Kind: mem.KindLoad, SM: -1, Warp: -1}
	cy := sim.Cycle(0)
	set("cache.access_ns_op", nsPerOp(budget, 8192, func(int) {
		creq.Addr = uint64(cy%4096) * 128
		creq.ID = uint64(cy)
		if res := c.Access(cy, creq); res.Status == cache.Miss {
			c.Fill(cy, c.BlockAddr(creq.Addr))
		}
		cy++
	}))

	set("sm.tick_ns_op", smTick(e, gf100, budget))
	ns, stalls := icntTick(gf100)
	set("icnt.tick_ns_op", ns)
	set("icnt.inject_stalls", stalls)
	set("mempart.tick_ns_op", mempartTick(gf100))
	rowBytes, banks := uint64(gf100.Partition.DRAM.RowBytes), uint64(gf100.Partition.DRAM.Banks)
	// Same bank, same row: every access after the first is a row hit.
	set("dram.tick_ns_op.rowhit", dramTick(gf100, func(i uint64) uint64 { return (i * 128) % rowBytes }))
	// Same bank, a new row every time: precharge and activate each access.
	set("dram.tick_ns_op.rowconflict", dramTick(gf100, func(i uint64) uint64 { return (i % 64) * banks * rowBytes }))
	set("gpu.memsub_step_ns_cycle.load002", memsubStep(e, gf100, 0.02))
	set("gpu.memsub_step_ns_cycle.load04", memsubStep(e, gf100, 0.4))
}

// smTick steps one stand-alone SM against a fixed-latency loopback
// memory (as internal/sm's tests do) running vecadd blocks back to back,
// and returns host nanoseconds per SM cycle.
func smTick(e *env, cfg gpu.Config, budget time.Duration) float64 {
	wl := kernels.VecAdd(1<<14, 128, subSeed(e.seed, streamLedger), 0)
	memory := mem.NewMemory()
	wl.Setup(memory)
	var seq uint64
	s := sm.New(cfg.SM, memory, func() uint64 { seq++; return seq }, nil)

	type reply struct {
		at  sim.Cycle
		req *mem.Request
	}
	var pending []reply
	const delay = 200
	next := 0
	cycle := sim.Cycle(0)
	step := func(int) {
		if next < wl.Kernel.GridDim && s.CanLaunch(wl.Kernel) {
			s.LaunchBlock(wl.Kernel, next, 0)
			next++
		} else if next == wl.Kernel.GridDim && !s.Busy() && len(pending) == 0 {
			next = 0 // the grid finished: run it again
		}
		for {
			r, ok := s.PopMiss(cycle)
			if !ok {
				break
			}
			if r.Log != nil {
				r.Log.Mark(mem.PtICNTInject, cycle)
			}
			if r.Kind != mem.KindStore {
				pending = append(pending, reply{cycle + delay, r})
			}
		}
		keep := pending[:0]
		for _, p := range pending {
			if p.at <= cycle && s.CanAcceptResponse() {
				s.AcceptResponse(cycle, p.req)
			} else {
				keep = append(keep, p)
			}
		}
		pending = keep
		s.Tick(cycle)
		s.FlushCycle()
		cycle++
	}
	return nsPerOp(budget, 4096, step)
}

// icntTick drives a GF100 request crossbar at saturation — every input
// offers a packet every cycle — and returns host nanoseconds per cycle
// (inject, Tick, eject) and the injection stalls over a fixed 20000
// cycles, which repeat exactly.
func icntTick(cfg gpu.Config) (nsPerCycle, injectStalls float64) {
	xc := cfg.RequestNet
	xc.Name, xc.Inputs, xc.Outputs = "bench.reqnet", cfg.NumSMs, cfg.NumPartitions
	x := icnt.New(xc)
	req := &mem.Request{Size: 128, Kind: mem.KindLoad, SM: -1, Warp: -1}
	const cycles = 20000
	t0 := time.Now()
	for c := sim.Cycle(0); c < cycles; c++ {
		for i := 0; i < xc.Inputs; i++ {
			if x.CanInject(i) {
				x.Inject(c, i, icnt.Packet{Req: req, Dst: (i + int(c)) % xc.Outputs, Size: cfg.ControlPacketBytes})
			} else {
				x.NoteInjectStall(i)
			}
		}
		x.Tick(c)
		for o := 0; o < xc.Outputs; o++ {
			for {
				if _, ok := x.PopEject(c, o); !ok {
					break
				}
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / cycles, float64(x.Stats().InjectStalls)
}

// mempartTick streams tracked loads into one GF100 partition as fast as
// it accepts them — a quarter re-reference recent lines, the rest walk
// new ones, so ROP, L2 hit pipeline, MSHRs and DRAM all stay busy — and
// returns host nanoseconds per partition cycle.
func mempartTick(cfg gpu.Config) float64 {
	pc := cfg.Partition
	pc.L2.Name, pc.DRAM.Name = "bench.l2", "bench.dram"
	p := mempart.New(pc)
	ring := make([]*mem.Request, 1024)
	for i := range ring {
		ring[i] = &mem.Request{Size: 128, Kind: mem.KindLoad, Log: &mem.StageLog{}}
	}
	const cycles = 30000
	issued := uint64(0)
	t0 := time.Now()
	for c := sim.Cycle(0); c < cycles; c++ {
		if p.CanAccept() {
			r := ring[issued%uint64(len(ring))]
			*r.Log = mem.StageLog{}
			line := issued
			if issued%4 == 3 {
				line = issued - 2
			}
			r.ID, r.Addr = issued+1, line*128
			r.Log.Mark(mem.PtIssue, c)
			r.Log.Mark(mem.PtL1Access, c)
			r.Log.Mark(mem.PtICNTInject, c)
			p.Accept(c, r)
			issued++
		}
		p.Tick(c)
		for {
			if _, ok := p.PopReturn(c); !ok {
				break
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// dramTick keeps one GF100 DRAM channel's queue full with the given
// address pattern and returns host nanoseconds per channel cycle.
func dramTick(cfg gpu.Config, addr func(i uint64) uint64) float64 {
	dc := cfg.Partition.DRAM
	dc.Name = "bench.dram"
	ch := dram.NewChannel(dc)
	ring := make([]*mem.Request, 256)
	for i := range ring {
		ring[i] = &mem.Request{Size: 128, Kind: mem.KindLoad, Log: &mem.StageLog{}}
	}
	const cycles = 30000
	issued := uint64(0)
	t0 := time.Now()
	for c := sim.Cycle(0); c < cycles; c++ {
		if ch.CanPush() {
			r := ring[issued%uint64(len(ring))]
			*r.Log = mem.StageLog{}
			r.ID, r.Addr = issued+1, addr(issued)
			r.Log.Mark(mem.PtDRAMQArrive, c)
			ch.Push(c, r)
			issued++
		}
		ch.Tick(c)
		sink += uint64(len(ch.Completed(c)))
	}
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// memsubStep steps gpu.MemSubsystem (networks and partitions, no SMs)
// under random load and returns host nanoseconds per cycle.
func memsubStep(e *env, cfg gpu.Config, load float64) float64 {
	ms := gpu.NewMemSubsystem(cfg, nil)
	r := newRNG(subSeed(e.seed, streamLedger))
	const cycles = 10000
	t0 := time.Now()
	for c := 0; c < cycles; c++ {
		for port := 0; port < cfg.NumSMs; port++ {
			if r.float() < load {
				ms.Inject(port, (r.next()%(64<<20))&^127, 128)
			}
		}
		ms.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// ledgerCore measures the device and the layers above it: construction,
// the tick engine's Step on a busy and on an idle device, phase-parallel
// stepping, kernel build and verify, the tracker and its reports, the
// static and loaded experiments, and the runner's bookkeeping.
func ledgerCore(e *env, set func(string, float64)) error {
	gf100 := mustConfig("GF100")
	seed := subSeed(e.seed, streamLedger)
	scale, warm, steps := kernels.ScaleExperiment, 2000, 5000
	if e.smoke {
		scale, warm, steps = kernels.ScaleTest, 200, 500
	}

	set("gpu.new_ms", msOf(15, func() { gpu.New(gf100) }))

	// Tick-engine Step on a device that is busy (vecadd streaming) and
	// on one that idles on a single outstanding DRAM access (a chase).
	vecadd, err := kernels.NewByName("vecadd", scale, seed)
	if err != nil {
		return err
	}
	chase, err := kernels.PChase(kernels.PChaseConfig{
		Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: 1 << 30,
	})
	if err != nil {
		return err
	}
	for name, wl := range map[string]*kernels.Workload{"dense": vecadd, "idle": chase} {
		cfg := gf100
		cfg.Engine = sim.EngineTick
		g := gpu.New(cfg)
		wl.Setup(g.Memory)
		if err := g.Launch(wl.Kernel); err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			g.Step()
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			g.Step()
		}
		set("gpu.step_ns_cycle."+name, float64(time.Since(t0).Nanoseconds())/float64(steps))
	}

	// Phase-parallel stepping at the host's width against serial, on
	// two dense kernels; and kernel build/verify on the way.
	var buildErr error
	set("kernels.build_ms", msOf(5, func() {
		for _, name := range []string{"vecadd", "transpose", "stencil2d", "histogram", "reduce", "gather", "spmv"} {
			if _, err := kernels.NewByName(name, scale, seed); err != nil {
				buildErr = err
			}
		}
	}))
	if buildErr != nil {
		return buildErr
	}
	histogram, err := kernels.NewByName("histogram", scale, seed)
	if err != nil {
		return err
	}
	var verifyMS []float64
	wallAt := func(workers int) (float64, error) {
		t0 := time.Now()
		for _, wl := range []*kernels.Workload{vecadd, histogram} {
			cfg := gf100
			cfg.Workers = workers
			g := gpu.New(cfg)
			wl.Setup(g.Memory)
			if _, err := g.RunKernel(wl.Kernel); err != nil {
				return 0, err
			}
			v0 := time.Now()
			if err := wl.Verify(g.Memory); err != nil {
				return 0, err
			}
			verifyMS = append(verifyMS, time.Since(v0).Seconds()*1000)
		}
		return time.Since(t0).Seconds(), nil
	}
	serial, err := wallAt(1)
	if err != nil {
		return err
	}
	parallel, err := wallAt(e.nproc)
	if err != nil {
		return err
	}
	set("gpu.par_speedup", serial/parallel)
	set("kernels.verify_ms", median(verifyMS))

	// The tracker's cost: the instrumented run against the bare one.
	var bare, tracked []float64
	var dr *core.DynamicResult
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if _, err := kernels.Run(gpu.New(gf100), vecadd); err != nil {
			return err
		}
		bare = append(bare, time.Since(t0).Seconds())
		t0 = time.Now()
		if dr, err = core.RunDynamic(gf100, vecadd); err != nil {
			return err
		}
		tracked = append(tracked, time.Since(t0).Seconds())
	}
	set("core.tracker_overhead_pct", 100*(median(tracked)-median(bare))/median(bare))
	set("core.report_ms", msOf(5, func() {
		sink += uint64(dr.Breakdown(48).Requests + dr.Exposure(24).Requests)
	}))

	// Table I through core.MeasureStatic: the time of one row and the
	// simulated-vs-paper error over all nine cells.
	opt := core.DefaultStaticOptions()
	if e.smoke {
		opt.Accesses = 32
	}
	cells := map[string]float64{}
	var staticMS []float64
	for _, arch := range []string{"GT200", "GF106", "GK104", "GM107"} {
		t0 := time.Now()
		sr, err := core.MeasureStatic(mustConfig(arch), opt)
		if err != nil {
			return err
		}
		staticMS = append(staticMS, time.Since(t0).Seconds()*1000)
		cells[arch+"/l1_cycles"], cells[arch+"/l2_cycles"], cells[arch+"/dram_cycles"] = sr.L1, sr.L2, sr.DRAM
	}
	set("core.static_ms", median(staticMS))
	errPct, _ := tableIError(func(arch, metric string) (float64, bool) {
		v, ok := cells[arch+"/"+metric]
		return v, ok && v == v
	})
	set("core.table1_max_err_pct", errPct)
	lopt := core.LoadedOptions{Seed: seed}
	if e.smoke {
		lopt.Cycles = 4000
	}
	var lerr error
	set("core.loaded_ms", msOf(1, func() { _, lerr = core.LoadedLatency(gf100, []float64{0.02}, lopt) }))
	if lerr != nil {
		return lerr
	}

	// The runner's bookkeeping: content keys, grid expansion, exports.
	job := chaseJobs(seed, 1)[0]
	set("runner.key_ns_op", nsPerOp(20*time.Millisecond, 256, func(int) { sink += uint64(len(job.Key())) }))
	grid := runner.Grid{Kind: runner.KindChase, Archs: []string{"GF100", "GF106"},
		Variants: []runner.Options{{Stride: 128, Footprint: 4096}, {Stride: 256, Footprint: 8192}}, Repeats: 250}
	set("runner.grid_expand_ns_job", nsPerOp(20*time.Millisecond, 4, func(int) {
		sink += uint64(len(grid.Jobs()))
	})/float64(grid.Size()))
	res := runner.Execute(context.Background(), job)
	if res.Failed() {
		return fmt.Errorf("ledger: %s: %s", job.Name(), res.Err)
	}
	rs := &runner.ResultSet{Results: make([]runner.Result, 260)}
	for i := range rs.Results {
		rs.Results[i] = res
		rs.Results[i].Index = i
	}
	var exportErr error
	set("runner.export_ms", msOf(5, func() {
		if err := rs.WriteJSON(io.Discard); err != nil {
			exportErr = err
		}
		if err := rs.WriteCSV(io.Discard); err != nil {
			exportErr = err
		}
	}))
	return exportErr
}
