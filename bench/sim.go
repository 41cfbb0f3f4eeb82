package main

// sim_dense and sim_sparse: one simulation at a time on one goroutine.
// They are mirror images. sim_dense runs issue- and bandwidth-bound
// kernels whose event-engine runs still step most cycles, so the
// per-cycle cost of sm/mem/cache/icnt/mempart/dram does the work.
// sim_sparse runs latency-bound simulations that skip almost every
// cycle, so the wake calendar (NextEvent horizons, re-arming, skip
// replay) does the work and component ticks do little.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

// simCase is one simulation of a pass.
type simCase struct {
	name string
	cfg  gpu.Config
	// wl is set for device runs (a kernel on a full GPU). The other two
	// kinds go through core's measurement entry points.
	wl     *kernels.Workload
	static bool    // core.MeasureStatic on cfg
	load   float64 // core.LoadedLatency at this offered load
}

// devCounters sums the simulated counters of the devices the harness
// can see; ratios over them are measured where the work happens.
type devCounters struct {
	cycles, skipped                uint64
	arms, fires                    uint64
	l1Hits, l1Misses               uint64
	l2Hits, l2Misses               uint64
	stallSB, stallLDST, stallEmpty uint64
	dramScheduled, dramRowHits     uint64
}

func (d *devCounters) add(g *gpu.GPU) {
	st := g.Stats()
	d.cycles += st.Cycles
	d.skipped += st.SkippedCycles
	for _, w := range g.WakeStats() {
		d.arms += w.Arms
		d.fires += w.Fired
	}
	for _, s := range g.SMs() {
		ss := s.Stats()
		d.l1Hits += ss.L1Hits
		d.l1Misses += ss.L1Misses
		d.stallSB += ss.IssueStallSB
		d.stallLDST += ss.IssueStallLDST
		d.stallEmpty += ss.IssueStallEmpty
	}
	for _, p := range g.Partitions() {
		ps := p.Stats()
		d.l2Hits += ps.L2Hits
		d.l2Misses += ps.L2Misses
		ds := p.DRAM().Stats()
		d.dramScheduled += ds.Scheduled
		d.dramRowHits += ds.RowHits
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// report writes the counters as per-layer metrics.
func (d *devCounters) report(set func(string, float64)) {
	set("sim.wake.arms", float64(d.arms))
	set("sim.wake.fires", float64(d.fires))
	set("sim.wake.fire_ratio", ratio(d.fires, d.arms))
	set("cache.l1.hit_ratio", ratio(d.l1Hits, d.l1Hits+d.l1Misses))
	set("cache.l2.hit_ratio", ratio(d.l2Hits, d.l2Hits+d.l2Misses))
	set("sm.issue_stall.sb", float64(d.stallSB))
	set("sm.issue_stall.ldst", float64(d.stallLDST))
	set("sm.issue_stall.empty", float64(d.stallEmpty))
	set("dram.row_hit_ratio", ratio(d.dramRowHits, d.dramScheduled))
	set("gpu.stepped_share", ratio(d.cycles-d.skipped, d.cycles))
}

// engineTotals accumulates simulated cycles against host time for one
// engine across every pass of the run.
type engineTotals struct {
	cycles uint64
	wall   time.Duration
}

func (t engineTotals) cyclesPerSecond() float64 {
	if t.wall == 0 {
		return 0
	}
	return float64(t.cycles) / t.wall.Seconds()
}

type simWorkload struct {
	env   *env
	dense bool
	cases []simCase

	// The tick-engine oracle of sim_sparse: a short chase run under both
	// engines during set-up; the cycle counts must agree.
	oracleEvent, oracleTick sim.Cycle
	oracleTickWall          time.Duration

	// acc[0] accumulates over untraced passes, acc[1] over traced ones,
	// so span times and counters of the traced passes line up.
	acc        [2]simAcc
	shares     map[string]float64
	mismatches []string
}

type simAcc struct {
	event, tick engineTotals
	counters    devCounters // event-engine device runs only
}

func (w *simWorkload) engines() string {
	if w.dense {
		return "event+tick"
	}
	return "event (tick oracle once)"
}

func mustConfig(name string) gpu.Config {
	cfg, ok := config.ByName(name)
	if !ok {
		panic("bench: unknown preset " + name)
	}
	return cfg
}

func (w *simWorkload) setup() error {
	w.cases = nil
	w.acc = [2]simAcc{}
	w.shares = map[string]float64{}
	if w.dense {
		return w.setupDense()
	}
	return w.setupSparse()
}

// setupDense builds the seven catalog kernels on GF100. spmv runs at an
// eighth of the experiment's rows: at full size it alone takes three
// quarters of a pass, which would leave too few passes for a median.
func (w *simWorkload) setupDense() error {
	base := subSeed(w.env.seed, streamDense)
	scale := kernels.ScaleExperiment
	spmvRows := 2048
	if w.env.smoke {
		scale, spmvRows = kernels.ScaleTest, 256
	}
	cfg := mustConfig("GF100")
	for i, name := range []string{"vecadd", "transpose", "stencil2d", "histogram", "reduce", "gather", "spmv"} {
		var wl *kernels.Workload
		var err error
		if name == "spmv" {
			wl, err = kernels.SpMV(spmvRows, 8, subSeed(base, i), 0)
		} else {
			wl, err = kernels.NewByName(name, scale, subSeed(base, i))
		}
		if err != nil {
			return err
		}
		w.cases = append(w.cases, simCase{name: name, cfg: cfg, wl: wl})
	}
	return nil
}

// setupSparse builds the latency-bound set: Table I's static measurement
// on the four generations, a long DRAM-level pointer chase, and loaded
// latency at two low offered loads; then runs the tick oracle.
func (w *simWorkload) setupSparse() error {
	accesses := 100_000
	if w.env.smoke {
		accesses = 2_000
	}
	for _, arch := range []string{"GT200", "GF106", "GK104", "GM107"} {
		w.cases = append(w.cases, simCase{name: "static/" + arch, cfg: mustConfig(arch), static: true})
	}
	chase := func(n int) (*kernels.Workload, error) {
		return kernels.PChase(kernels.PChaseConfig{
			Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: n,
		})
	}
	wl, err := chase(accesses)
	if err != nil {
		return err
	}
	gf100 := mustConfig("GF100")
	w.cases = append(w.cases, simCase{name: "chase", cfg: gf100, wl: wl})
	for _, l := range []float64{0.005, 0.02} {
		w.cases = append(w.cases, simCase{name: fmt.Sprintf("loaded/%g", l), cfg: gf100, load: l})
	}

	// The tick engine is ~90x slower on a chase, so the oracle runs a
	// hundredth of the accesses, once per set-up, outside the passes.
	small, err := chase(accesses / 100)
	if err != nil {
		return err
	}
	for _, eng := range []sim.Engine{sim.EngineEvent, sim.EngineTick} {
		cfg := gf100
		cfg.Engine = eng
		t0 := time.Now()
		cycles, err := kernels.Run(gpu.New(cfg), small)
		if err != nil {
			return fmt.Errorf("tick oracle (%s): %w", eng, err)
		}
		if eng == sim.EngineEvent {
			w.oracleEvent = cycles
		} else {
			w.oracleTick, w.oracleTickWall = cycles, time.Since(t0)
		}
	}
	return nil
}

func (w *simWorkload) teardown() {}

func (w *simWorkload) prepare(*tracer) error { return nil }

// simOut is one simulation's outcome: its comparable summary, the
// simulated cycles it covered and, for device runs, the device.
type simOut struct {
	cycles  sim.Cycle
	summary string
	dev     *gpu.GPU
}

// simulate runs one device case with full latency instrumentation and
// builds the Figure 1 and Figure 2 reports, as the runner's dynamic jobs
// do. Untraced it goes through core.RunDynamic, the entry point users
// call. Traced, the harness makes the same calls itself so that each
// step gets a span.
func simulate(tr *tracer, parent int, req string, cfg gpu.Config, wl *kernels.Workload) (simOut, error) {
	var dr *core.DynamicResult
	if tr == nil {
		var err error
		if dr, err = core.RunDynamic(cfg, wl); err != nil {
			return simOut{}, err
		}
	} else {
		sp := tr.start("gpu.new", parent, req)
		tk := core.NewTracker()
		g := gpu.NewWithObservers(cfg, tk, tk)
		tr.end(sp)
		sp = tr.start("kernels.setup", parent, req)
		wl.Setup(g.Memory)
		tr.end(sp)
		sp = tr.start("gpu.run", parent, req)
		cycles, err := g.RunKernel(wl.Kernel)
		tr.end(sp)
		if err != nil {
			return simOut{}, fmt.Errorf("%s: %w", wl.Name, err)
		}
		sp = tr.start("kernels.verify", parent, req)
		err = wl.Verify(g.Memory)
		tr.end(sp)
		if err != nil {
			return simOut{}, err
		}
		var inst uint64
		for _, s := range g.SMs() {
			inst += s.Stats().InstIssued
		}
		dr = &core.DynamicResult{Arch: cfg.Name, Workload: wl.Name, Tracker: tk,
			Cycles: cycles, Launches: 1, Instructions: inst, Device: g}
	}
	sp := tr.start("core.report", parent, req)
	bd := dr.Breakdown(48)
	ex := dr.Exposure(24)
	tr.end(sp)
	return simOut{
		cycles: dr.Cycles,
		dev:    dr.Device,
		summary: fmt.Sprintf("cycles=%d inst=%d loads=%d l1icnt=%.9g dramq=%.9g exposed=%.9g",
			dr.Cycles, dr.Instructions, bd.Requests, bd.TotalPct(core.StageL1ToICNT),
			bd.TotalPct(core.StageDRAMQueue), ex.OverallExposedPct()),
	}, nil
}

func (w *simWorkload) pass(tr *tracer, root int) passResult {
	var pr passResult
	var digest strings.Builder
	acc := &w.acc[0]
	if tr != nil {
		acc = &w.acc[1]
	}
	engines := []sim.Engine{sim.EngineEvent}
	if w.dense {
		engines = append(engines, sim.EngineTick)
	}
	eventCycles := map[string]sim.Cycle{}
	for _, eng := range engines {
		sweep := time.Now()
		for _, c := range w.cases {
			cfg := c.cfg
			cfg.Engine = eng
			req := fmt.Sprintf("%s/%s", eng, c.name)
			pr.attempted++
			sp := tr.start("sim", root, req)
			t0 := time.Now()
			out, err := w.runCase(tr, sp, req, c, cfg)
			wall := time.Since(t0)
			cycles, dev := out.cycles, out.dev
			tr.end(sp)
			if err != nil {
				pr.failed++
				w.mismatches = append(w.mismatches, fmt.Sprintf("%s: %v", req, err))
				continue
			}
			pr.jobs++
			// The summary must not depend on the engine: the digest
			// lists it under the case name only.
			fmt.Fprintf(&digest, "%s %s\n", c.name, out.summary)
			if eng == sim.EngineEvent {
				acc.event.cycles += uint64(cycles)
				acc.event.wall += wall
				eventCycles[c.name] = cycles
				if dev != nil {
					acc.counters.add(dev)
					st := dev.Stats()
					w.shares[c.name] = ratio(st.Cycles-st.SkippedCycles, st.Cycles)
				}
			} else {
				acc.tick.cycles += uint64(cycles)
				acc.tick.wall += wall
				pr.attempted++
				if cycles != eventCycles[c.name] {
					pr.failed++
					w.mismatches = append(w.mismatches,
						fmt.Sprintf("%s: tick %d cycles, event %d", c.name, cycles, eventCycles[c.name]))
				}
			}
		}
		// One sweep over the kernel set is what a caller waits for.
		pr.ops = append(pr.ops, time.Since(sweep).Seconds()*1000)
	}
	pr.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(digest.String())))
	return pr
}

// runCase dispatches one simulation.
func (w *simWorkload) runCase(tr *tracer, sp int, req string, c simCase, cfg gpu.Config) (simOut, error) {
	switch {
	case c.static:
		in := tr.start("core.static", sp, req)
		opt := core.DefaultStaticOptions()
		if w.env.smoke {
			opt.Accesses = 32
		}
		sr, err := core.MeasureStatic(cfg, opt)
		tr.end(in)
		// MeasureStatic does not report the cycles it simulated, so it
		// adds host time but no cycles to the throughput figures.
		return simOut{summary: fmt.Sprintf("l1=%.9g l2=%.9g dram=%.9g", sr.L1, sr.L2, sr.DRAM)}, err
	case c.load > 0:
		in := tr.start("core.loaded", sp, req)
		opt := core.LoadedOptions{Seed: subSeed(w.env.seed, streamSparse)}
		if w.env.smoke {
			opt.Cycles = 4_000
		}
		pts, err := core.LoadedLatency(cfg, []float64{c.load}, opt)
		tr.end(in)
		if err != nil {
			return simOut{}, err
		}
		window := sim.Cycle(50_000)
		if opt.Cycles > 0 {
			window = opt.Cycles
		}
		p := pts[0]
		return simOut{cycles: window,
			summary: fmt.Sprintf("mean=%.9g p99=%.9g completed=%d", p.MeanLatency, p.P99Latency, p.Completed)}, nil
	default:
		return simulate(tr, sp, req, cfg, c.wl)
	}
}

func (w *simWorkload) verify() (int, []string) {
	failures := append([]string(nil), w.mismatches...)
	checks := 1
	// The workload must stress the layer it was chosen for. (Smoke-scale
	// kernels are too short to be dense.)
	ctr := w.acc[0].counters
	share := ratio(ctr.cycles-ctr.skipped, ctr.cycles)
	switch {
	case w.env.smoke:
	case w.dense && share < 0.7:
		failures = append(failures, fmt.Sprintf("sim_dense stepped share %.3f < 0.7: not a per-cycle-cost workload", share))
	case !w.dense && share > 0.1:
		failures = append(failures, fmt.Sprintf("sim_sparse stepped share %.3f > 0.1: not a calendar workload", share))
	}
	if !w.dense {
		checks++
		if w.oracleEvent != w.oracleTick {
			failures = append(failures, fmt.Sprintf("tick oracle: event %d cycles, tick %d", w.oracleEvent, w.oracleTick))
		}
	}
	for _, c := range w.cases {
		if s, ok := w.shares[c.name]; ok {
			fmt.Printf("info: stepped share %-10s %.4f\n", c.name, s)
		}
	}
	return checks, failures
}

func (w *simWorkload) layers(spans []span, set func(string, float64)) {
	acc := w.acc[1]
	acc.counters.report(set)
	tick := acc.tick
	if !w.dense {
		tick = engineTotals{cycles: uint64(w.oracleTick), wall: w.oracleTickWall}
	}
	set("gpu.event_cycles_per_s", acc.event.cyclesPerSecond())
	set("gpu.tick_cycles_per_s", tick.cyclesPerSecond())
	if t := tick.cyclesPerSecond(); t > 0 {
		set("gpu.event_over_tick", acc.event.cyclesPerSecond()/t)
	}
	// Host time per simulated event: the event-engine gpu.run spans over
	// the cycles those runs actually stepped.
	var runNS int64
	for i := range spans {
		if spans[i].Name == "gpu.run" && strings.HasPrefix(spans[i].Req, "event/") {
			runNS += spans[i].End - spans[i].Start
		}
	}
	if stepped := acc.counters.cycles - acc.counters.skipped; stepped > 0 {
		set("gpu.host_ns_per_stepped_cycle", float64(runNS)/float64(stepped))
	}
}
