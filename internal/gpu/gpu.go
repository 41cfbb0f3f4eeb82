// Package gpu assembles the full simulated GPU: the SMs, the request and
// reply interconnection networks, and the memory partitions, plus the
// block dispatcher and the top-level run loops. It is the integration
// point where the paper's instrumentation attaches: the per-request stage
// logs flowing through the memory system, which also carry the two
// issue-cycle stamps each SM takes for the exposed-latency analysis, and
// an optional per-SM per-cycle issue observer.
//
// Two engines drive the device through one cycle body (step), the only
// place the phase order is written. The cycle-driven loop (Step) runs it
// ungated: every cycle is stepped and ticks each SM and partition that
// holds work, as occupancy masks name them — the reference semantics.
// The event-driven loop (runEvent) runs it gated, keeping one wake
// registration per component on a sim.Scheduler: each cycle it ticks
// only the components whose wakes are due, re-arms the ones that changed
// from their NextEvent horizons, and jumps the clock to the next
// registered wake. Each SM and partition settles the per-cycle counters
// of the cycles it was not ticked in itself (Settle), so both engines'
// results and statistics are byte-identical. The dispatcher is not a
// subscriber: both engines dispatch only in cycles where a retirement or
// an enqueue armed it. See internal/sim/doc.go for the full contract and
// the wake-source notes in each component package.
package gpu

import (
	"fmt"
	"math/bits"

	"gpulat/internal/icnt"
	"gpulat/internal/mem"
	"gpulat/internal/mempart"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// Config describes a whole GPU.
type Config struct {
	// Name identifies the architecture preset (e.g. "GF100-like").
	Name string
	// SM is the per-SM configuration template; NumSMs instances are
	// created with sequential IDs.
	SM     sm.Config
	NumSMs int
	// Partition is the per-partition template; NumPartitions instances
	// are created.
	Partition     mempart.Config
	NumPartitions int
	// Request/reply network templates; Inputs/Outputs are filled in.
	RequestNet icnt.Config
	ReplyNet   icnt.Config
	// PartitionInterleave is the address granularity at which global
	// addresses stripe across partitions (bytes, power of two).
	PartitionInterleave uint32
	// ControlPacketBytes and DataPacketBytes size network packets:
	// a load request or store ack is a control packet; a store request
	// or load reply adds the data payload.
	ControlPacketBytes uint32
	DataPacketBytes    uint32
	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles sim.Cycle
	// Engine selects the top-level simulation loop: the event-driven
	// kernel (default), which fast-forwards across provably idle spans,
	// or the cycle-driven reference loop. The two produce identical
	// results; see the README's "Simulation kernel" section.
	Engine sim.Engine
	// Placement selects the block dispatcher's placement policy for
	// co-resident streams: shared breadth-first (default) or spatial
	// SM partitioning. Single-stream runs behave identically under both.
	Placement sched.Placement
	// Workers is ignored: a device is stepped by one goroutine.
	//
	// Deprecated: kept only so bench/ledger_sim.go compiles; the benchmark
	// PR that retires gpu.par_speedup deletes this field.
	Workers int `json:"-"`
}

// Every timed building block of the device honors the event-driven
// kernel's NextEvent contract.
var (
	_ sim.Component = (*mempart.Partition)(nil)
	_ sim.Component = (*icnt.Crossbar)(nil)
	_ sim.Component = (*sm.SM)(nil)
)

func (c Config) validate() error {
	switch {
	case c.NumSMs <= 0 || c.NumPartitions <= 0:
		return fmt.Errorf("gpu %s: SM and partition counts must be positive", c.Name)
	case c.PartitionInterleave == 0 || c.PartitionInterleave&(c.PartitionInterleave-1) != 0:
		return fmt.Errorf("gpu %s: partition interleave must be a power of two", c.Name)
	case c.ControlPacketBytes == 0:
		return fmt.Errorf("gpu %s: control packet bytes must be positive", c.Name)
	}
	return nil
}

// IssueObserver receives per-cycle issue accounting: called once per
// ticked SM per stepped cycle, so implementations must be cheap. The
// exposed-latency analysis does not need it (a load's StageLog carries
// its SM's issue-cycle stamps); tests use it as a per-cycle oracle.
type IssueObserver interface {
	IssueSlot(smID int, c sim.Cycle, issued int)
}

// NopIssueObserver ignores issue accounting.
type NopIssueObserver struct{}

// IssueSlot implements IssueObserver.
func (NopIssueObserver) IssueSlot(int, sim.Cycle, int) {}

// GPU is one simulated device.
type GPU struct {
	cfg    Config
	Memory *mem.Memory

	sms    []*sm.SM
	allSMs uint64 // one bit per SM
	memFabric

	// reqSeq is the device's request-ID sequence.
	reqSeq uint64

	// busy has bit i set while SM i is Busy, missOcc while it holds a
	// miss for the request network: the core and inject phases walk them.
	busy, missOcc uint64

	issueObs IssueObserver

	cycle sim.Cycle

	// ev is the event engine's subscriber-calendar state (untouched by
	// the tick engine): per-component wake registrations and dirty marks
	// for end-of-cycle re-arming.
	ev evState

	// disp is the stream/dispatch subsystem: named streams of queued
	// kernels and the block placement engine (replaces the old single-
	// kernel launch state).
	disp *sched.Dispatcher

	stats Stats
}

// Stats aggregates device-level counters. The tags are their -trace-sim
// families, exported in field order.
type Stats struct {
	// Cycles is the total simulated time, identical for both engines.
	Cycles uint64 `metric:"gpulat_sim_cycles_total,counter,Simulated cycles (identical across engines)."`
	// SkippedCycles is the portion of Cycles the event-driven kernel
	// fast-forwarded instead of stepping (0 under the tick engine); the
	// skip ratio is the engine's speedup lever.
	SkippedCycles   uint64 `metric:"gpulat_sim_skipped_cycles_total,counter,Cycles the event engine fast-forwarded instead of stepping."`
	KernelsLaunched uint64 `metric:"gpulat_sim_kernels_launched_total,counter,Kernels launched on the device."`
	BlocksDispatch  uint64 `metric:"gpulat_sim_blocks_dispatched_total,counter,Thread blocks placed on SMs across all kernels."`
}

// New constructs a GPU with a fresh functional memory.
func New(cfg Config) *GPU {
	return NewWithObservers(cfg, nil, nil)
}

// NewWithObservers constructs a GPU wiring the latency observer (request
// completions) and the issue observer (per-cycle issue accounting).
func NewWithObservers(cfg Config, obs mem.Observer, issueObs IssueObserver) *GPU {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if obs == nil {
		obs = mem.NopObserver{}
	}
	if issueObs == nil {
		issueObs = NopIssueObserver{}
	}
	g := &GPU{
		cfg:      cfg,
		Memory:   mem.NewMemory(),
		issueObs: issueObs,
	}
	g.memFabric = newMemFabric(cfg, "")
	g.allSMs = 1<<uint(cfg.NumSMs) - 1
	newID := func() uint64 { g.reqSeq++; return g.reqSeq }
	for i := 0; i < cfg.NumSMs; i++ {
		smCfg := cfg.SM
		smCfg.ID = i
		smCfg.L1.Name = fmt.Sprintf("%s.sm%d.l1", cfg.Name, i)
		g.sms = append(g.sms, sm.New(smCfg, g.Memory, newID, obs))
	}
	g.disp = sched.NewDispatcher(g.sms, cfg.Placement)
	for _, s := range g.sms {
		s.SetBlockRetireObserver(g.noteBlockRetired)
		s.SetRequestPool(g.pool)
	}
	return g
}

// memFabric is the memory side of a device — request network,
// partitions, reply network — and the handoff phases between them that
// the GPU and the SM-less testbench step alike.
type memFabric struct {
	reqNet, replyNet *icnt.Crossbar
	parts            []*mempart.Partition
	replySize        uint32 // a load reply's packet bytes
	// pool is the one request free list of the device or testbench:
	// requests cross SM and partition boundaries, so the pool must too.
	// Reuse order can only change pointer identity — every component
	// keys requests by Request.ID, so simulated results are unaffected.
	pool *mem.RequestPool
	// partOcc has bit i set while partition i holds any request, retOcc
	// while it holds a reply for the reply network: the partition and
	// return phases walk them, as the eject phases walk the crossbars'.
	partOcc, retOcc uint64
}

// newMemFabric builds a memFabric, naming each component cfg.Name+tag+…
// (the GPU passes no tag, the SM-less testbench ".tb").
func newMemFabric(cfg Config, tag string) memFabric {
	var parts []*mempart.Partition
	pool := &mem.RequestPool{}
	name := cfg.Name + tag
	reqCfg := cfg.RequestNet
	reqCfg.Name = name + ".reqnet"
	reqCfg.Inputs = cfg.NumSMs
	reqCfg.Outputs = cfg.NumPartitions

	repCfg := cfg.ReplyNet
	repCfg.Name = name + ".replynet"
	repCfg.Inputs = cfg.NumPartitions
	repCfg.Outputs = cfg.NumSMs

	for i := 0; i < cfg.NumPartitions; i++ {
		pc := cfg.Partition
		pc.ID = i
		pc.L2.Name = fmt.Sprintf("%s.part%d.l2", name, i)
		pc.DRAM.Name = fmt.Sprintf("%s.part%d.dram", name, i)
		p := mempart.New(pc)
		p.SetRequestPool(pool)
		parts = append(parts, p)
	}
	return memFabric{reqNet: icnt.New(reqCfg), replyNet: icnt.New(repCfg), parts: parts,
		replySize: cfg.ControlPacketBytes + cfg.DataPacketBytes, pool: pool}
}

// RequestPool exposes the request free list (conservation tests:
// nothing is outstanding once the device or testbench has drained).
func (f *memFabric) RequestPool() *mem.RequestPool { return f.pool }

// Partitions exposes the memory partitions (stats and tests).
func (f *memFabric) Partitions() []*mempart.Partition { return f.parts }

// withBit returns m with bit i set to on.
func withBit(m uint64, i int, on bool) uint64 {
	if on {
		return m | 1<<uint(i)
	}
	return m &^ (1 << uint(i))
}

// notePart refreshes partition pi's occupancy bits after its Tick or
// PopReturn; Accept, the one other mutation, only sets partOcc.
func (f *memFabric) notePart(pi int) {
	f.partOcc = withBit(f.partOcc, pi, !f.parts[pi].Drained())
	f.retOcc = withBit(f.retOcc, pi, f.parts[pi].ReturnQueued())
}

// sendReturns moves the visible return heads of the partitions in parts
// into the reply network, reporting whether any packet was injected.
func (f *memFabric) sendReturns(c sim.Cycle, parts uint64) (injected bool) {
	for m := parts & f.retOcc; m != 0; m &= m - 1 {
		pi := bits.TrailingZeros64(m)
		p := f.parts[pi]
		for {
			r, ok := p.PeekReturn(c)
			if !ok {
				break
			}
			if !f.replyNet.CanInject(pi) {
				f.replyNet.NoteInjectStall(pi)
				break
			}
			p.PopReturn(c)
			f.replyNet.Inject(c, pi, icnt.Packet{Req: r, Dst: r.SM, Size: f.replySize})
			injected = true
		}
		f.notePart(pi)
	}
	return injected
}

// acceptRequests hands ejected requests to their partitions while they
// have room, returning the partitions that took one.
func (f *memFabric) acceptRequests(c sim.Cycle) (accepted uint64) {
	for m := f.reqNet.EjectOccupied(); m != 0; m &= m - 1 {
		pi := bits.TrailingZeros64(m)
		for f.parts[pi].CanAccept() {
			pkt, ok := f.reqNet.PopEject(c, pi)
			if !ok {
				break
			}
			f.parts[pi].Accept(c, pkt.Req)
			accepted |= 1 << uint(pi)
		}
	}
	f.partOcc |= accepted
	return accepted
}

// nextEvent is the horizon of the partitions and both networks.
func (f *memFabric) nextEvent(now sim.Cycle) sim.Cycle {
	h := min(f.reqNet.NextEvent(now), f.replyNet.NextEvent(now))
	for _, p := range f.parts {
		h = min(h, p.NextEvent(now))
	}
	return h
}

// drained reports whether the partitions and both networks are empty.
func (f *memFabric) drained() bool {
	return f.partOcc == 0 && f.reqNet.Pending() == 0 && f.replyNet.Pending() == 0
}

// partitionOf maps a global address to its memory partition.
func (c *Config) partitionOf(addr uint64) int {
	return int((addr / uint64(c.PartitionInterleave)) % uint64(c.NumPartitions))
}

// noteBlockRetired forwards a block retirement to the dispatcher and
// flags the event engine: a retirement frees SM capacity (and possibly
// advances a stream), the two conditions under which a dispatch pass
// can place new work.
func (g *GPU) noteBlockRetired(c sim.Cycle, kernelID int) {
	g.disp.NoteBlockRetired(c, kernelID)
	g.ev.needDispatch = true
}

// Cycle returns the current simulation cycle.
func (g *GPU) Cycle() sim.Cycle { return g.cycle }

// Stats returns device counters. The launch and dispatch totals come
// from the stream dispatcher and always equal the sum of its per-kernel
// stats.
func (g *GPU) Stats() Stats {
	st := g.stats
	st.KernelsLaunched = uint64(g.disp.KernelsLaunched())
	st.BlocksDispatch = uint64(g.disp.BlocksDispatched())
	return st
}

// Release keeps the device's counters and drops its simulator: Config,
// Stats, WakeStats, per-kernel stats and each component's config and
// Stats stay; functional memory, queues, caches, tables and the request
// pool go. Run and Enqueue then return an error and Step panics.
func (g *GPU) Release() {
	for _, s := range g.sms {
		s.Release()
	}
	for _, p := range g.parts {
		p.Release()
	}
	g.reqNet.Release()
	g.replyNet.Release()
	g.Memory, g.pool = nil, nil
}

// errReleased is the error of Run, Enqueue and Step on a released device.
func (g *GPU) errReleased() error {
	if g.Memory == nil {
		return fmt.Errorf("gpu %s: device released", g.cfg.Name)
	}
	return nil
}

// Dispatcher exposes the stream/dispatch subsystem (per-kernel stats,
// stream state).
func (g *GPU) Dispatcher() *sched.Dispatcher { return g.disp }

// SMs exposes the cores (stats and tests).
func (g *GPU) SMs() []*sm.SM { return g.sms }

// Launch enqueues kernel k on the default stream and dispatches as many
// of its blocks as fit right now. Invalid grid or block dimensions are
// reported as an error (the kernel is not enqueued). Kernels launched
// while others are still resident co-run under the configured placement
// policy; kernels on the same stream run in order.
func (g *GPU) Launch(k *sm.Kernel) error {
	_, err := g.Enqueue(sched.DefaultStream, k)
	if err != nil {
		return err
	}
	g.busy |= g.disp.Dispatch(g.cycle, g.cycle-1)
	return nil
}

// Enqueue validates kernel k and queues it on the named stream without
// dispatching; Run dispatches queued kernels as capacity allows. The
// returned state carries the kernel's per-launch stats (blocks
// dispatched/retired, residency span) as they accrue.
func (g *GPU) Enqueue(stream string, k *sm.Kernel) (*sched.KernelState, error) {
	if err := g.errReleased(); err != nil {
		return nil, err
	}
	ks, err := g.disp.Enqueue(stream, k)
	if err != nil {
		return nil, fmt.Errorf("gpu %s: %w", g.cfg.Name, err)
	}
	// A new kernel may become a stream head, which the next dispatch
	// pass must observe (it marks the head active and stamps LaunchedAt
	// even when no block fits yet).
	g.ev.needDispatch = true
	return ks, nil
}

// Step advances the device one cycle with every component that holds
// work ticked (both networks every cycle, dispatch after a retirement or
// an enqueue): the tick engine's cycle and the reference semantics. It
// touches no wake state, so it is valid on any device — before, between
// or without event-engine runs — but a released one, where it panics.
func (g *GPU) Step() {
	if err := g.errReleased(); err != nil {
		panic(err)
	}
	g.step(g.cycle, false)
	g.cycle++
	g.stats.Cycles++
	if g.ev.audit {
		g.auditState(g.cycle)
	}
}

// Done reports whether every enqueued kernel has retired and the device
// has fully drained.
func (g *GPU) Done() bool {
	return g.disp.Done() && g.busy == 0 && g.drained()
}

// noteSM refreshes SM si's occupancy bits after its Tick or PopMiss.
func (g *GPU) noteSM(si int) {
	g.busy = withBit(g.busy, si, g.sms[si].Busy())
	g.missOcc = withBit(g.missOcc, si, g.sms[si].MissQueued())
}

// NextEvent returns the earliest cycle at or after now at which any
// component of the device can act, or sim.Never when the machine is
// fully drained. Inter-component handoffs need no terms of their own:
// each component reports now while it holds an eligible item for a
// neighbor, so a transfer opportunity always pins the horizon. The run
// loop no longer polls this (components push wakes onto the scheduler
// instead); it remains the tick-oracle view the horizon property test
// audits cycle by cycle.
func (g *GPU) NextEvent(now sim.Cycle) sim.Cycle {
	h := g.nextEvent(now)
	for _, s := range g.sms {
		h = min(h, s.NextEvent(now))
	}
	return h
}

// evState is the event engine's subscriber-calendar bookkeeping. The
// scheduler holds one wake registration per component; dirty marks
// record which components were mutated during the current cycle and
// must re-arm before the clock advances (see the contract in
// internal/sim/doc.go).
type evState struct {
	sched *sim.Scheduler
	// IDs are contiguous per kind: partition pi is part0+pi, SM si sm0+si.
	part0, sm0   int
	reqID, repID int

	dirtyPart, dirtySM uint64 // bit i: partition (SM) i
	dirtyReq, dirtyRep bool

	// needDispatch arms the dispatch phase. The dispatcher is not a
	// calendar subscriber: a dispatch pass can only place work after a
	// block retires or a kernel is enqueued, both of which happen inside
	// a stepped cycle and set this flag for the same cycle's tail.
	needDispatch bool

	audit    bool
	auditBad []string
}

// evReset (re)arms the wake registry at the start of an event-engine
// run: every component starts due at the first cycle, so the opening
// cycle ticks the whole machine once and each component's first real
// horizon is registered from live state. Resetting on every Run call
// keeps back-to-back runs on one device (the service layer's reuse
// pattern) independent of the previous run's final registrations.
func (g *GPU) evReset(start sim.Cycle) {
	ev := &g.ev
	if ev.sched == nil {
		ev.sched = sim.NewScheduler(g.cfg.Name + ".wakes")
		ev.part0 = ev.sched.Size()
		for i := range g.parts {
			ev.sched.Register(fmt.Sprintf("part%d", i))
		}
		ev.reqID = ev.sched.Register("reqnet")
		ev.repID = ev.sched.Register("replynet")
		ev.sm0 = ev.sched.Size()
		for i := range g.sms {
			ev.sched.Register(fmt.Sprintf("sm%d", i))
		}
	}
	g.armAll(start)
	ev.dirtyPart, ev.dirtySM = 0, 0
	ev.dirtyReq, ev.dirtyRep = false, false
}

// armAll makes every component due at cycle c: the opening state of a
// run, and the Never-horizon fallback (where nothing is armed, so
// replacing each registration is the same as waking it).
func (g *GPU) armAll(c sim.Cycle) {
	for id := 0; id < g.ev.sched.Size(); id++ {
		g.ev.sched.Rearm(id, c)
	}
}

// step advances cycle c. It is the one place the device's phase order —
// which is the timing model — is written: partitions, reply network
// (transfer, tick, eject), request network (inject, tick, accept), cores
// with their flush, dispatch. Each phase walks a bitmask: the parts and
// sms to visit, narrowed by an occupancy mask, or a crossbar's occupied
// ejection ports. Ungated (Step, the tick engine) parts are the busy
// partitions and sms every SM, and no wake state is read or written.
// Gated (runEvent) they are the components whose wakes are due, and
// every mutation marks its component for rearmDirty. A handoff phase
// skipping the rest loses nothing: a visible return head or a queued
// miss pins its owner's NextEvent at now, so the stall observations stay
// the tick engine's, and a component outside the occupancy masks holds
// nothing, so its Tick would be a no-op.
func (g *GPU) step(c sim.Cycle, gated bool) {
	ev := &g.ev
	parts, sms := g.partOcc, g.allSMs
	if gated {
		parts = ev.sched.Fire(ev.part0, len(g.parts), c)
		sms = ev.sched.Fire(ev.sm0, len(g.sms), c)
		ev.dirtyPart |= parts
	}

	// Memory partitions (includes DRAM).
	for m := parts; m != 0; m &= m - 1 {
		pi := bits.TrailingZeros64(m)
		g.parts[pi].Tick(c)
		g.notePart(pi)
	}

	// Reply network: partition return queues → network → SMs. A visible
	// return head pins its partition's horizon at now, so every cycle on
	// which this transfer (or its inject-stall observation) can happen
	// is stepped, and the partition was ticked above.
	injected := g.sendReturns(c, parts)
	// A freshly injected packet can traverse this same cycle (the
	// injection queues have zero latency), so injection forces a tick
	// even when the network's armed wake is later.
	if !gated || ev.sched.Fire(ev.repID, 1, c) != 0 || injected {
		g.replyNet.Tick(c)
		if gated {
			ev.dirtyRep = true
		}
	}
	for m := g.replyNet.EjectOccupied(); m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		s := g.sms[si]
		for s.CanAcceptResponse() {
			pkt, ok := g.replyNet.PopEject(c, si)
			if !ok {
				break
			}
			if gated {
				// Wake the SM: a buffered response pins its horizon at now,
				// so it is ticked later this same cycle — reply eject before
				// the core phase is what lets a reply and its processing
				// share a cycle under both engines. The SM joins sms, its
				// fire counted once.
				ev.dirtyRep = true
				ev.sched.WakeAt(ev.sm0+si, c)
				if sms&(1<<uint(si)) == 0 {
					sms |= ev.sched.Fire(ev.sm0+si, 1, c) << uint(si)
				}
			}
			// No busy bit to set: a reply answers an outstanding load.
			s.AcceptResponse(c, pkt.Req)
		}
	}

	// Request network: SM miss queues → network → partitions. A waiting
	// miss pins its SM's horizon at now, so these cycles are stepped too,
	// and the SM is due: the core phase below ticks and re-arms it.
	injected = false
	for m := sms & g.missOcc; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		s := g.sms[si]
		for {
			r, ok := s.PeekMiss(c)
			if !ok {
				break
			}
			if !g.reqNet.CanInject(si) {
				g.reqNet.NoteInjectStall(si)
				break
			}
			s.PopMiss(c)
			r.Partition = g.cfg.partitionOf(r.Addr)
			if r.Log != nil {
				r.Log.Mark(mem.PtICNTInject, c)
			}
			size := g.cfg.ControlPacketBytes
			if r.Kind == mem.KindStore {
				size += g.cfg.DataPacketBytes
			}
			g.reqNet.Inject(c, si, icnt.Packet{Req: r, Dst: r.Partition, Size: size})
			injected = true
		}
		g.noteSM(si)
	}
	if !gated || ev.sched.Fire(ev.reqID, 1, c) != 0 || injected {
		g.reqNet.Tick(c)
		if gated {
			ev.dirtyReq = true
		}
	}
	if accepted := g.acceptRequests(c); gated && accepted != 0 {
		ev.dirtyReq = true
		ev.dirtyPart |= accepted
	}

	// Cores last: issue sees this cycle's returned data next cycle. Every
	// core ticks before any core's stores and atomics commit: the flush
	// pass below applies them in SM index order, so no SM observes another
	// SM's same-cycle write (see sm.FlushCycle). Gated, only SMs whose wake
	// is due are ticked; the rest sleep and settle their per-cycle idle
	// counters at their next Tick or launch. This is the engine's main
	// lever: a core whose warps are all blocked on in-flight loads — or
	// whose LDST head the L1 refused — costs nothing until something
	// arrives. Only busy SMs tick: an idle one can neither issue nor hold
	// a load, and gated, one that drained while armed is disarmed by the
	// re-arm.
	if gated {
		ev.dirtySM |= sms
	}
	ticked := sms & g.busy
	for m := ticked; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		if g.ev.audit && !g.sms[si].Busy() {
			g.auditf(c, "sm%d ticked while idle (stale busy bit)", si)
		}
		g.sms[si].Tick(c)
		g.noteSM(si)
	}
	for m := ticked; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		g.sms[si].FlushCycle()
		g.issueObs.IssueSlot(si, c, g.sms[si].IssuedThisCycle())
	}

	// Dispatch: only when a retirement or enqueue armed it this cycle
	// (the audited tick engine tries every cycle and reports a placement
	// nothing armed). The dispatcher settles each SM through c before it
	// launches a block there. Launched SMs are woken for c+1 by the re-arm
	// pass (a fresh warp is issuable immediately, so NextEvent pins c+1).
	if ev.needDispatch {
		ev.needDispatch = false
		if gated {
			ev.dirtySM = g.allSMs
		}
		g.busy |= g.disp.Dispatch(c, c)
	} else if !gated && ev.audit {
		if placed := g.disp.Dispatch(c, c); placed != 0 {
			g.busy |= placed
			g.auditf(c, "dispatch placed blocks on SMs %#x with no retirement or enqueue to arm it", placed)
		}
	}
}

// rearmDirty re-registers every component mutated during cycle c with
// its fresh horizon NextEvent(c+1); untouched components keep their
// registrations, which remain valid because NextEvent depends only on
// the component's own (frozen) state.
func (g *GPU) rearmDirty(c sim.Cycle) {
	ev := &g.ev
	next := c + 1
	for m := ev.dirtyPart; m != 0; m &= m - 1 {
		pi := bits.TrailingZeros64(m)
		ev.sched.Rearm(ev.part0+pi, g.parts[pi].NextEvent(next))
	}
	ev.dirtyPart = 0
	if ev.dirtyReq {
		ev.dirtyReq = false
		ev.sched.Rearm(ev.reqID, g.reqNet.NextEvent(next))
	}
	if ev.dirtyRep {
		ev.dirtyRep = false
		ev.sched.Rearm(ev.repID, g.replyNet.NextEvent(next))
	}
	for m := ev.dirtySM; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		ev.sched.Rearm(ev.sm0+si, g.sms[si].NextEvent(next))
	}
	ev.dirtySM = 0
	if ev.audit {
		g.auditWakes(next)
	}
}

// SetWakeAudit enables the lost-wakeup detector: after every stepped
// cycle, every component's NextEvent is re-polled and compared against
// its armed wake. A component able to act before its registration means
// some mutation path failed to wake or re-arm it — the classic
// event-driven simulation bug. The occupancy masks and each SM's issue
// readiness are audited at the same points (auditState), and after
// every Step under the tick engine, which also tries a dispatch on every
// cycle that armed none. The audit is O(components) per cycle with full
// horizon scans, so it is meant for tests, not production runs.
func (g *GPU) SetWakeAudit(on bool) { g.ev.audit = on }

// WakeAuditViolations returns the violations the audit recorded (nil
// when the audit is off or clean). At most 16 are kept.
func (g *GPU) WakeAuditViolations() []string { return g.ev.auditBad }

func (g *GPU) auditWakes(next sim.Cycle) {
	ev := &g.ev
	check := func(id int, h sim.Cycle) {
		if h < ev.sched.Armed(id) {
			g.auditf(next, "%s can act at %d but is armed at %d (lost wake-up)", ev.sched.Name(id), h, ev.sched.Armed(id))
		}
	}
	for pi, p := range g.parts {
		check(ev.part0+pi, p.NextEvent(next))
	}
	check(ev.reqID, g.reqNet.NextEvent(next))
	check(ev.repID, g.replyNet.NextEvent(next))
	for si, s := range g.sms {
		check(ev.sm0+si, s.NextEvent(next))
	}
	g.auditState(next)
}

// auditState checks the state the step phases and the horizons walk
// instead of rescanning: the device's occupancy masks, the crossbars'
// and each SM's readiness, all against live queues.
func (g *GPU) auditState(next sim.Cycle) {
	for _, x := range []*icnt.Crossbar{g.reqNet, g.replyNet} {
		if err := x.AuditOccupancy(); err != nil {
			g.auditf(next, "%v", err)
		}
	}
	var live [4]uint64 // busy, missOcc, partOcc, retOcc
	for si, s := range g.sms {
		if err := s.AuditReadiness(); err != nil {
			g.auditf(next, "%v", err)
		}
		live[0] = withBit(live[0], si, s.Busy())
		live[1] = withBit(live[1], si, s.MissQueued())
	}
	for pi, p := range g.parts {
		live[2] = withBit(live[2], pi, !p.Drained())
		live[3] = withBit(live[3], pi, p.ReturnQueued())
	}
	if kept := [4]uint64{g.busy, g.missOcc, g.partOcc, g.retOcc}; kept != live {
		g.auditf(next, "stale busy/missOcc/partOcc/retOcc masks %#x, live %#x", kept, live)
	}
}

func (g *GPU) auditf(next sim.Cycle, format string, args ...any) {
	if len(g.ev.auditBad) < 16 {
		g.ev.auditBad = append(g.ev.auditBad, fmt.Sprintf("cycle %d: ", next)+fmt.Sprintf(format, args...))
	}
}

// WakeStat reports one component's event-engine wake activity: how many
// registrations the scheduler accepted for it and how many due wake-ups
// led to processing. ExampleNewGPU prints them to show where the engine
// spends its stepped cycles.
type WakeStat struct {
	Name  string `metric:"component"`
	Arms  uint64 `metric:"gpulat_sim_component_arms_total,counter,Wake registrations the event scheduler accepted, per component."`
	Fired uint64 `metric:"gpulat_sim_component_wakes_total,counter,Due wake-ups that led to processing, per component."`
}

// WakeStats returns per-component wake counters accumulated by the
// event engine, in the engine's fixed component order (nil when the
// event engine has not run).
func (g *GPU) WakeStats() []WakeStat {
	if g.ev.sched == nil {
		return nil
	}
	out := make([]WakeStat, g.ev.sched.Size())
	for id := range out {
		out[id] = WakeStat{
			Name:  g.ev.sched.Name(id),
			Arms:  g.ev.sched.Arms(id),
			Fired: g.ev.sched.Fires(id),
		}
	}
	return out
}

// runEvent is the subscriber-calendar run loop: step the cycles at
// which some wake is due, re-arm what changed, and jump the clock to
// the next registered wake. The jumped cycles are exactly those in
// which Step would have moved nothing — every queue head still in
// traversal, every bank and bus busy, every warp blocked on a timed
// wait — so the jump is observationally identical to stepping them
// (each component settles the per-cycle counters of the span itself).
func (g *GPU) runEvent(start sim.Cycle) (sim.Cycle, error) {
	g.evReset(g.cycle)
	if g.Done() {
		return 0, nil
	}
	for {
		if g.cfg.MaxCycles > 0 && g.cycle-start > g.cfg.MaxCycles {
			// Settle through the last simulated cycle so an aborted run
			// reports the same statistics as the tick loop's abort at the
			// same cycle.
			for _, s := range g.sms {
				s.Settle(g.cycle - 1)
			}
			for _, p := range g.parts {
				p.Settle(g.cycle - 1)
			}
			return g.cycle - start, fmt.Errorf("gpu %s: exceeded %d cycles without completing", g.cfg.Name, g.cfg.MaxCycles)
		}
		c := g.cycle
		g.step(c, true)
		g.rearmDirty(c)
		g.cycle++
		g.stats.Cycles++
		h := g.ev.sched.NextWake()
		if h == sim.Never {
			// Nothing is armed: either the device has fully drained
			// (every component re-armed to Never) or the run is stuck.
			// Done(), an O(components) scan, is only paid here — a fully
			// drained machine always reaches Never, since the draining
			// mutations mark their components dirty and the final re-arm
			// of an empty component yields Never.
			if g.Done() {
				break
			}
			// Safety net: nothing is armed but the device has not
			// drained. Degrade to tick-like stepping by waking everything
			// — behaviorally identical to the tick loop (which would also
			// spin here until MaxCycles aborts it).
			g.armAll(g.cycle)
			continue
		}
		if g.cfg.MaxCycles > 0 {
			// Clamp so a runaway jump aborts at the same cycle as the
			// tick loop.
			h = min(h, start+g.cfg.MaxCycles+1)
		}
		if h > g.cycle {
			delta := uint64(h - g.cycle)
			g.cycle = h
			g.stats.Cycles += delta
			g.stats.SkippedCycles += delta
		}
	}
	return g.cycle - start, nil
}

// Run advances until every enqueued kernel completes and the device
// drains, returning the cycles elapsed during the run. It returns an
// error if MaxCycles is exceeded. Under the default event engine the
// run loop is driven off the wake calendar — components subscribe to
// future cycles and everything else is skipped; results are identical
// to the tick engine either way.
func (g *GPU) Run() (sim.Cycle, error) {
	if err := g.errReleased(); err != nil {
		return 0, err
	}
	start := g.cycle
	// Kernels enqueued without Launch have not dispatched yet; placing
	// them now (with every stream registered, so spatial slices cover
	// all streams) makes their blocks resident from the first stepped
	// cycle, exactly like Launch.
	g.busy |= g.disp.Dispatch(g.cycle, g.cycle-1)
	if g.cfg.Engine == sim.EngineEvent {
		return g.runEvent(start)
	}
	for !g.Done() {
		g.Step()
		if g.cfg.MaxCycles > 0 && g.cycle-start > g.cfg.MaxCycles {
			return g.cycle - start, fmt.Errorf("gpu %s: exceeded %d cycles without completing", g.cfg.Name, g.cfg.MaxCycles)
		}
	}
	return g.cycle - start, nil
}

// RunKernel launches k and runs it to completion. Invalid launch
// dimensions surface as the returned error.
func (g *GPU) RunKernel(k *sm.Kernel) (sim.Cycle, error) {
	if err := g.Launch(k); err != nil {
		return 0, err
	}
	return g.Run()
}
