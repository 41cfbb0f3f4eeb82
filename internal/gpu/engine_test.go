package gpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gpulat/internal/dram"
	"gpulat/internal/icnt"
	"gpulat/internal/isa"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// chaseKernel builds a single-thread pointer chase: r1 = mem[r1],
// repeated n times around a ring — the latency-bound extreme where the
// whole machine idles on one in-flight load at a time, the event
// engine's best case and the paper's motivating access pattern.
func chaseKernel(base uint64, n int) *sm.Kernel {
	b := isa.NewBuilder("chase")
	b.Param(1, 0).
		MovI(2, int32(n)).
		Label("loop").
		Ldg(1, 1, 0). // r1 = mem[r1]
		IAddI(2, 2, -1).
		ISetpI(0, isa.CmpGT, 2, 0).
		P(0).Bra("loop").
		Param(3, 1).
		Stg(3, 0, 1). // publish the final pointer
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{uint32(base), uint32(base + 1<<20)},
		BlockDim: 1,
		GridDim:  1,
	}
}

// setupRing writes a pointer ring of the given stride under the kernel's
// base address.
func setupRing(g *GPU, base uint64, elems int, stride uint64) {
	for i := 0; i < elems; i++ {
		next := base + uint64((i+1)%elems)*stride
		g.Memory.Store32(base+uint64(i)*stride, uint32(next))
	}
}

// engineVariants are the configurations the cross-engine checks cover:
// every DRAM scheduler, both warp schedulers, and the cache topologies
// of all simulated generations (Fermi with L1+L2, Tesla with neither in
// the global path).
func engineVariants() map[string]Config {
	base := tinyConfig()

	tesla := tinyConfig()
	tesla.SM.L1Enabled = false
	tesla.SM.L1LocalEnabled = false
	tesla.Partition.L2Enabled = false

	fcfs := tinyConfig()
	fcfs.Partition.DRAM.Scheduler = dram.FCFS

	capped := tinyConfig()
	capped.Partition.DRAM.Scheduler = dram.FRFCFSCap
	capped.Partition.DRAM.CapStreak = 2

	gto := tinyConfig()
	gto.SM.Scheduler = sm.GTO

	return map[string]Config{
		"base": base, "tesla": tesla, "fcfs": fcfs, "cap": capped, "gto": gto,
		"starved": starvedConfig(),
	}
}

// starvedConfig shrinks every queue and MSHR file of tinyConfig until
// the park states are reached: the L1 and the L2 refuse reservations,
// the L2 queue head stalls, and the DRAM queue pushes back
// (TestStarvedConfigReachesParks).
func starvedConfig() Config {
	cfg := tinyConfig()
	cfg.SM.MissQueueDepth, cfg.SM.ResponseQueueDepth = 1, 1
	cfg.SM.L1.MSHREntries, cfg.SM.L1.MSHRMaxMerge = 1, 1
	cfg.Partition.L2QueueDepth, cfg.Partition.ReturnQueueDepth = 1, 1
	cfg.Partition.L2.MSHREntries, cfg.Partition.L2.MSHRMaxMerge = 2, 1
	cfg.Partition.DRAM.QueueDepth, cfg.Partition.DRAM.BurstCycles = 2, 16
	for _, net := range []*icnt.Config{&cfg.RequestNet, &cfg.ReplyNet} {
		net.InjectDepth, net.EjectDepth = 1, 1
	}
	return cfg
}

// TestStarvedConfigReachesParks: on the starved variant every retry
// counter a park replays is nonzero, so the engine tests above check
// parked retries too.
func TestStarvedConfigReachesParks(t *testing.T) {
	cfg := starvedConfig()
	cfg.Engine = sim.EngineEvent
	g, _ := runEngineWorkload(t, cfg, "vecinc")
	var l1Fails, l2Fails, l2Stalls, dramStalls uint64
	for _, s := range g.sms {
		l1Fails += s.L1().Stats().ReservationFails
	}
	for _, p := range g.parts {
		l2Fails += p.L2().Stats().ReservationFails
		l2Stalls += p.Stats().L2Stalls
		dramStalls += p.DRAM().Stats().Stalls
	}
	if l1Fails == 0 || l2Fails == 0 || l2Stalls == 0 || dramStalls == 0 {
		t.Fatalf("L1 reservation fails %d, L2 reservation fails %d, L2 stalls %d, DRAM stalls %d: want all nonzero",
			l1Fails, l2Fails, l2Stalls, dramStalls)
	}
}

// runEngineWorkload launches one of the named micro-workloads on a fresh
// device and runs it to completion.
func runEngineWorkload(t *testing.T, cfg Config, workload string) (*GPU, sim.Cycle) {
	t.Helper()
	g := New(cfg)
	// The lost-wakeup detector re-polls every component's horizon after
	// each stepped cycle; a component able to act before its armed wake
	// fails the run even when the final state happens to match.
	g.SetWakeAudit(true)
	var k *sm.Kernel
	switch workload {
	case "vecinc":
		const n = 512
		in, out := uint64(0x1000), uint64(0x40000)
		for i := 0; i < n; i++ {
			g.Memory.Store32(in+uint64(i)*4, uint32(i))
		}
		k = vecIncKernel(uint32(in), uint32(out), n, 64)
	case "chase":
		const base, elems, stride = 0x10000, 64, 512
		setupRing(g, base, elems, stride)
		k = chaseKernel(base, 3*elems)
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	cycles, err := g.RunKernel(k)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if bad := g.WakeAuditViolations(); len(bad) > 0 {
		t.Fatalf("%s: wake audit violations:\n%s", workload, strings.Join(bad, "\n"))
	}
	return g, cycles
}

// deviceSignature renders every piece of semantic device state the
// engines must agree on. Per-cycle observations are excluded: the device
// and SM cycle counters and empty-issue-slot counts advance on skipped
// cycles by design (and are settled by the SM), a parked retry counts
// an L1 or L2 reservation failure, an L2 stall or a DRAM stall each cycle
// (settled by the SM or the partition), and the crossbar's EjectBlocked
// counts full-queue observations, not events.
func deviceSignature(g *GPU) string {
	var b strings.Builder
	gs := g.Stats()
	gs.Cycles, gs.SkippedCycles = 0, 0
	fmt.Fprintf(&b, "gpu:%+v disp:%s\n", gs, g.disp.DebugState())
	for _, s := range g.sms {
		ss := s.Stats()
		ss.Cycles, ss.IssueStallEmpty = 0, 0
		fmt.Fprintf(&b, "sm%d:%+v %s\n", s.Config().ID, ss, s.DebugState())
		if l1 := s.L1(); l1 != nil {
			l1s := l1.Stats()
			l1s.ReservationFails = 0
			fmt.Fprintf(&b, "  l1:%+v\n", l1s)
		}
	}
	for i, p := range g.parts {
		ps, ds := p.Stats(), p.DRAM().Stats()
		ps.L2Stalls, ds.Stalls = 0, 0
		fmt.Fprintf(&b, "part%d:%+v %s\n", i, ps, p.DebugState())
		fmt.Fprintf(&b, "  dram:%+v %s\n", ds, p.DRAM().DebugState())
		if l2 := p.L2(); l2 != nil {
			l2s := l2.Stats()
			l2s.ReservationFails = 0
			fmt.Fprintf(&b, "  l2:%+v\n", l2s)
		}
	}
	for _, x := range []*icnt.Crossbar{g.reqNet, g.replyNet} {
		xs := x.Stats()
		xs.EjectBlocked = 0
		fmt.Fprintf(&b, "%s:%+v %s\n", x.Config().Name, xs, x.DebugState())
	}
	return b.String()
}

// statsSignature is the engine-comparable subset of deviceSignature: the
// full counters including the idle observations Settle replays, so the
// test also proves the replay is exact.
func statsSignature(g *GPU) string {
	var b strings.Builder
	gs := g.Stats()
	gs.SkippedCycles = 0
	fmt.Fprintf(&b, "gpu:%+v\n", gs)
	for _, s := range g.sms {
		fmt.Fprintf(&b, "sm%d:%+v\n", s.Config().ID, s.Stats())
		if l1 := s.L1(); l1 != nil {
			fmt.Fprintf(&b, "  l1:%+v\n", l1.Stats())
		}
	}
	for i, p := range g.parts {
		fmt.Fprintf(&b, "part%d:%+v dram:%+v\n", i, p.Stats(), p.DRAM().Stats())
		if l2 := p.L2(); l2 != nil {
			fmt.Fprintf(&b, "  l2:%+v\n", l2.Stats())
		}
	}
	for _, x := range []*icnt.Crossbar{g.reqNet, g.replyNet} {
		xs := x.Stats()
		xs.EjectBlocked = 0
		fmt.Fprintf(&b, "net:%+v\n", xs)
	}
	return b.String()
}

// requireEnginesAgree fails the test unless a tick run and an event run
// of the same work elapsed the same cycles, stopped at the same cycle,
// and left identical semantic state and statistics.
func requireEnginesAgree(t *testing.T, gt *GPU, ct sim.Cycle, ge *GPU, ce sim.Cycle) {
	t.Helper()
	if ct != ce || gt.Cycle() != ge.Cycle() {
		t.Fatalf("cycles: tick %d (at %d), event %d (at %d)", ct, gt.Cycle(), ce, ge.Cycle())
	}
	if a, b := deviceSignature(gt), deviceSignature(ge); a != b {
		t.Fatalf("final state diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
	}
	if a, b := statsSignature(gt), statsSignature(ge); a != b {
		t.Fatalf("statistics diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
	}
}

// TestEventEngineMatchesTick runs each micro-workload on each
// configuration variant under both engines and requires identical
// cycle counts, final semantic state, and statistics — including the
// idle counters the SMs and partitions settle.
func TestEventEngineMatchesTick(t *testing.T) {
	for vname, cfg := range engineVariants() {
		for _, wl := range []string{"vecinc", "chase"} {
			t.Run(vname+"/"+wl, func(t *testing.T) {
				tickCfg := cfg
				tickCfg.Engine = sim.EngineTick
				eventCfg := cfg
				eventCfg.Engine = sim.EngineEvent

				gt, ct := runEngineWorkload(t, tickCfg, wl)
				ge, ce := runEngineWorkload(t, eventCfg, wl)
				requireEnginesAgree(t, gt, ct, ge, ce)
				if ge.Stats().SkippedCycles == 0 {
					t.Fatalf("event engine skipped nothing on %s/%s", vname, wl)
				}
			})
		}
	}
}

// runCoRunWorkload co-runs a latency-bound chase and a bandwidth-bound
// vecinc on independent streams (disjoint data) under the given engine
// and placement.
func runCoRunWorkload(t *testing.T, cfg Config) (*GPU, sim.Cycle) {
	t.Helper()
	g := New(cfg)
	g.SetWakeAudit(true)
	const n = 256
	for i := 0; i < n; i++ {
		g.Memory.Store32(0x40000+uint64(i)*4, uint32(i))
	}
	setupRing(g, 0x10000, 32, 512)
	if _, err := g.Enqueue("lat", chaseKernel(0x10000, 96)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Enqueue("bw", vecIncKernel(0x40000, 0x60000, n, 64)); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.WakeAuditViolations(); len(bad) > 0 {
		t.Fatalf("co-run wake audit violations:\n%s", strings.Join(bad, "\n"))
	}
	return g, cycles
}

// TestEventEngineMatchesTickCoRun extends the engine-equivalence check
// to concurrent kernels: multi-stream horizons must merge exactly, under
// both placement policies.
func TestEventEngineMatchesTickCoRun(t *testing.T) {
	for _, placement := range []sched.Placement{sched.PlacementShared, sched.PlacementSpatial} {
		t.Run(placement.String(), func(t *testing.T) {
			tickCfg := tinyConfig()
			tickCfg.Engine = sim.EngineTick
			tickCfg.Placement = placement
			eventCfg := tickCfg
			eventCfg.Engine = sim.EngineEvent

			gt, ct := runCoRunWorkload(t, tickCfg)
			ge, ce := runCoRunWorkload(t, eventCfg)
			requireEnginesAgree(t, gt, ct, ge, ce)
			if ge.Stats().SkippedCycles == 0 {
				t.Fatal("event engine skipped nothing on the co-run")
			}
		})
	}
}

// TestNextEventHorizonNeverLate is the NextEvent-contract property test:
// under the tick engine, every simulated cycle strictly before the
// reported horizon must be a provable no-op. A state change inside a
// reported quiescent span means a component over-reported its horizon —
// exactly the bug that would let the event engine skip real work.
func TestNextEventHorizonNeverLate(t *testing.T) {
	for vname, cfg := range engineVariants() {
		for _, wl := range []string{"vecinc", "chase"} {
			t.Run(vname+"/"+wl, func(t *testing.T) {
				cfg := cfg
				cfg.Engine = sim.EngineTick
				g := New(cfg)
				var k *sm.Kernel
				switch wl {
				case "vecinc":
					const n = 256
					for i := 0; i < n; i++ {
						g.Memory.Store32(0x1000+uint64(i)*4, uint32(i))
					}
					k = vecIncKernel(0x1000, 0x40000, n, 64)
				case "chase":
					setupRing(g, 0x10000, 32, 512)
					k = chaseKernel(0x10000, 64)
				}
				if err := g.Launch(k); err != nil {
					t.Fatal(err)
				}
				quiet, checked := 0, 0
				for !g.Done() {
					now := g.Cycle()
					h := g.NextEvent(now)
					if h == sim.Never {
						t.Fatalf("cycle %d: Never horizon on a non-drained device", now)
					}
					var sig string
					if h > now {
						sig = deviceSignature(g)
					}
					g.Step()
					if g.Cycle() > 500_000 {
						t.Fatal("runaway simulation")
					}
					// The tick-engine half of the readiness audit (the event
					// engine's runs inside its wake audit).
					for _, s := range g.sms {
						if err := s.AuditReadiness(); err != nil {
							t.Fatalf("cycle %d: %v", now, err)
						}
					}
					if h > now {
						quiet++
						if got := deviceSignature(g); got != sig {
							t.Fatalf("cycle %d changed state inside reported quiescence until %d:\n--- before ---\n%s--- after ---\n%s",
								now, h, sig, got)
						}
					}
					checked++
				}
				if quiet == 0 {
					t.Fatalf("horizon never exceeded now in %d cycles (nothing would be skipped)", checked)
				}
			})
		}
	}
}

// TestRetireWithWritebackInFlight: every block ends with an IADD nothing
// reads right before its EXIT, so each retires with that result still in
// flight and later blocks relaunch into the slots it left. An SM stays
// busy until the last result lands; under the event engine nothing else
// is left to wake it then. No catalog kernel ends this way. The cycle
// counts are pinned: a change here moves every SM's busy span.
func TestRetireWithWritebackInFlight(t *testing.T) {
	b := isa.NewBuilder("dead-iadd-before-exit")
	b.S2R(1, isa.SrTID).S2R(2, isa.SrCTAID).S2R(3, isa.SrNTID).
		IMad(4, 2, 3, 1).ShlI(4, 4, 2).Param(5, 0).IAdd(5, 5, 4).
		Ldg(6, 5, 0).IAddI(6, 6, 1).Stg(5, 0, 6).
		IAddI(7, 6, 1). // dead: nothing reads R7
		Exit()
	k := &sm.Kernel{Program: b.Build(), Params: []uint32{0x10000}, BlockDim: 64, GridDim: 6}
	run := func(engine sim.Engine) (*GPU, sim.Cycle) {
		cfg := tinyConfig()
		cfg.SM.ALULatency = 40
		cfg.Engine = engine
		g := New(cfg)
		g.SetWakeAudit(true)
		cycles, err := g.RunKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if bad := g.WakeAuditViolations(); len(bad) > 0 {
			t.Fatalf("%s: wake audit violations:\n%s", engine, strings.Join(bad, "\n"))
		}
		return g, cycles
	}
	gt, ct := run(sim.EngineTick)
	ge, ce := run(sim.EngineEvent)
	requireEnginesAgree(t, gt, ct, ge, ce)
	got := []uint64{ge.Stats().Cycles}
	for _, s := range ge.SMs() {
		got = append(got, s.Stats().Cycles)
	}
	if want := []uint64{592, 592, 592}; !slices.Equal(got, want) {
		t.Fatalf("device, sm0, sm1 cycles = %v, want %v", got, want)
	}
}

// TestAbortEquivalence pins runEvent's abort promise: a run cut short by
// MaxCycles reports the same cycle, error and statistics as the tick
// loop's abort at the same cycle — every SM and partition settles through
// the abort point, and a jump never overshoots it. The starved runs abort
// while a partition sleeps behind a parked L2 head, whose stalls only the
// abort's settle counts.
func TestAbortEquivalence(t *testing.T) {
	type abort struct {
		name      string
		cfg       Config
		maxCycles sim.Cycle
	}
	var aborts []abort
	for _, maxCycles := range []sim.Cycle{1, 7, 40, 137, 400, 700} {
		aborts = append(aborts, abort{fmt.Sprint(maxCycles), tinyConfig(), maxCycles})
	}
	for _, maxCycles := range []sim.Cycle{300, 600} {
		aborts = append(aborts, abort{fmt.Sprint("starved/", maxCycles), starvedConfig(), maxCycles})
	}
	for _, a := range aborts {
		t.Run(a.name, func(t *testing.T) {
			run := func(engine sim.Engine) (string, string) {
				cfg := a.cfg
				cfg.Engine = engine
				cfg.MaxCycles = a.maxCycles
				g := New(cfg)
				for i := uint64(0); i < 2048; i++ {
					g.Memory.Store32(0x10000+i*4, uint32(i))
				}
				cycles, err := g.RunKernel(vecIncKernel(0x10000, 0x40000, 2048, 64))
				if err == nil {
					t.Fatalf("%s: run completed in %d cycles, want an abort", engine, cycles)
				}
				return fmt.Sprintf("cycles:%d at:%d err:%v", cycles, g.Cycle(), err), statsSignature(g)
			}
			tickEnd, tickStats := run(sim.EngineTick)
			eventEnd, eventStats := run(sim.EngineEvent)
			if tickEnd != eventEnd {
				t.Fatalf("abort point: tick %q, event %q", tickEnd, eventEnd)
			}
			if tickStats != eventStats {
				t.Fatalf("statistics diverged:\n--- tick ---\n%s--- event ---\n%s", tickStats, eventStats)
			}
		})
	}
}

// manualStepThenRun runs one kernel to completion, launches a second,
// advances 37 cycles with direct Step calls — on a device whose wake
// registry is stale (event engine) or absent (tick) — and finishes with
// Run, which must re-arm from live state.
func manualStepThenRun(t *testing.T, cfg Config) (*GPU, sim.Cycle) {
	t.Helper()
	g := New(cfg)
	g.SetWakeAudit(true)
	for i := uint64(0); i < 512; i++ {
		g.Memory.Store32(0x10000+i*4, uint32(i))
	}
	if _, err := g.RunKernel(vecIncKernel(0x10000, 0x20000, 512, 64)); err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(vecIncKernel(0x20000, 0x30000, 512, 64)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		g.Step()
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.WakeAuditViolations(); len(bad) > 0 {
		t.Fatalf("wake audit violations:\n%s", strings.Join(bad, "\n"))
	}
	if got := g.Memory.Load32(0x30000 + 511*4); got != 513 {
		t.Fatalf("out[511] = %d, want 513", got)
	}
	return g, cycles
}

// TestManualStepThenRun requires the hand-stepped run to end in the same
// state under both engines.
func TestManualStepThenRun(t *testing.T) {
	tickCfg := tinyConfig()
	tickCfg.Engine = sim.EngineTick
	eventCfg := tinyConfig()
	eventCfg.Engine = sim.EngineEvent

	gt, ct := manualStepThenRun(t, tickCfg)
	ge, ce := manualStepThenRun(t, eventCfg)
	requireEnginesAgree(t, gt, ct, ge, ce)
}

// TestLaunchOntoBusySMsCountsEachCycleOnce enqueues a second stream's
// kernel while the first keeps both SMs busy and lets Run place it. Run
// and Launch dispatch before the cycle they are called at is stepped, so
// an SM a block lands on settles only the cycles before that one. The
// tick engine ticks every busy SM every cycle, so there the SMs' cycle
// counts must sum to the ticks the issue observer saw; the event engine
// must count the same.
func TestLaunchOntoBusySMsCountsEachCycleOnce(t *testing.T) {
	run := func(engine sim.Engine) (*GPU, sim.Cycle, uint64) {
		cfg := tinyConfig()
		cfg.Engine = engine
		ticks := &issueCounter{}
		g := NewWithObservers(cfg, nil, ticks)
		for i := uint64(0); i < 128; i++ {
			g.Memory.Store32(0x10000+i*4, uint32(i))
		}
		if err := g.Launch(vecIncKernel(0x10000, 0x20000, 128, 64)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 37; i++ {
			g.Step()
		}
		if g.busy != g.allSMs {
			t.Fatalf("busy SMs %#b before the second launch, want all", g.busy)
		}
		if _, err := g.Enqueue("b", vecIncKernel(0x10000, 0x30000, 128, 64)); err != nil {
			t.Fatal(err)
		}
		cycles, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return g, cycles, ticks.slots
	}
	gt, ct, ticks := run(sim.EngineTick)
	var counted uint64
	for _, s := range gt.SMs() {
		counted += s.Stats().Cycles
	}
	if counted != ticks {
		t.Fatalf("the SMs count %d cycles but were ticked in %d", counted, ticks)
	}
	ge, ce, _ := run(sim.EngineEvent)
	requireEnginesAgree(t, gt, ct, ge, ce)
}

// TestTickCreatesNoWakeState: the ungated cycle body reads and writes no
// event-engine state, so a device driven by Step alone, or by the tick
// engine's Run, never grows a wake registry.
func TestTickCreatesNoWakeState(t *testing.T) {
	newDevice := func() *GPU {
		cfg := tinyConfig()
		cfg.Engine = sim.EngineTick
		g := New(cfg)
		if err := g.Launch(vecIncKernel(0x10000, 0x20000, 512, 64)); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := newDevice()
	for !g.Done() {
		g.Step()
		if g.Cycle() > 500_000 {
			t.Fatal("runaway simulation")
		}
	}
	want := statsSignature(g)
	if g.WakeStats() != nil {
		t.Fatal("Step created wake state")
	}
	g = newDevice()
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.WakeStats() != nil {
		t.Fatal("tick Run created wake state")
	}
	if got := statsSignature(g); got != want {
		t.Fatalf("tick Run diverged from Step alone:\n--- Step ---\n%s--- Run ---\n%s", want, got)
	}
}
