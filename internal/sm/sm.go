// Package sm models one streaming multiprocessor: warp residency and
// block slots, warp schedulers (loose round-robin and greedy-then-oldest),
// a scoreboard of per-register release times, and the LDST unit with
// address coalescing, the L1 data cache, and the miss queue toward the
// interconnect. The time an instruction-generated memory request spends
// inside the SM before its L1 access is the paper's "SM Base" latency
// component; the time a miss waits in the miss queue before network
// injection is "L1toICNT".
//
// Under the event engine the SM wakes (NextEvent) when: a buffered
// response awaits processing or a miss awaits network injection (both pin
// now); a retire event or the LDST queue head comes due; a warp's next
// instruction becomes issuable — its readyAt, the latest of its
// branch-delay window and its operands' release times; or, with no block
// left and nothing else pending, when the last arithmetic result lands and
// the core can report itself idle. Warps blocked on loads carry no term:
// their wake rides the response/retire horizons.
package sm

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"gpulat/internal/cache"
	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/warp"
)

// SchedPolicy selects the warp scheduling policy.
type SchedPolicy uint8

const (
	// LRR is loose round-robin: rotate through ready warps.
	LRR SchedPolicy = iota
	// GTO is greedy-then-oldest: keep issuing the same warp until it
	// stalls, then switch to the oldest ready warp.
	GTO
)

// String names the policy.
func (p SchedPolicy) String() string {
	if p == LRR {
		return "LRR"
	}
	return "GTO"
}

// Config describes one SM.
type Config struct {
	ID        int
	WarpSize  int
	MaxWarps  int
	MaxBlocks int
	Scheduler SchedPolicy
	// IssueWidth is the number of instructions issued per cycle
	// (distinct warps).
	IssueWidth int

	// ALULatency is the dependent-use latency of arithmetic results;
	// BranchLatency stalls the issuing warp after a branch while it
	// resolves.
	ALULatency    sim.Cycle
	BranchLatency sim.Cycle

	// LDSTIssueLatency is the pipeline depth from instruction issue to
	// the coalescer/L1 access (the front part of "SM Base").
	LDSTIssueLatency sim.Cycle
	// LDSTQueueDepth bounds in-flight warp memory instructions.
	LDSTQueueDepth int
	// CoalesceSegment is the memory transaction size in bytes.
	CoalesceSegment uint32

	// L1Enabled routes global accesses through the L1; L1LocalEnabled
	// routes local (thread-private) accesses through it. On Fermi both
	// are true; on Kepler only locals may use L1; on Tesla and Maxwell
	// the L1 is absent for both.
	L1Enabled      bool
	L1LocalEnabled bool
	L1             cache.Config

	// MissQueueDepth bounds requests waiting to enter the network;
	// ResponseQueueDepth bounds replies waiting to be processed.
	MissQueueDepth     int
	ResponseQueueDepth int
	// WritebackLatency is the return-path depth from data arrival (or
	// L1 hit) to register writeback (the tail of a load's lifetime).
	WritebackLatency sim.Cycle

	// SharedLatency is the base shared-memory access latency;
	// SharedBanks is the bank count for conflict modeling.
	SharedLatency sim.Cycle
	SharedBanks   int
}

// Validate reports the first field of c that no SM can be built from.
func (c Config) Validate() error {
	switch {
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("sm %d: warp size must be in 1..32", c.ID)
	case c.MaxWarps <= 0 || c.MaxBlocks <= 0:
		return fmt.Errorf("sm %d: warp/block capacity must be positive", c.ID)
	case c.MaxWarps > 64:
		// Warp-slot sets are uint64 bitmasks (the readiness masks, issue's
		// per-cycle exclude set); every real GPU generation modeled
		// resides well under 64 warps per SM.
		return fmt.Errorf("sm %d: at most 64 warp slots supported, got %d", c.ID, c.MaxWarps)
	case c.IssueWidth <= 0:
		return fmt.Errorf("sm %d: issue width must be positive", c.ID)
	case c.LDSTQueueDepth <= 0 || c.MissQueueDepth <= 0 || c.ResponseQueueDepth <= 0:
		return fmt.Errorf("sm %d: queue depths must be positive", c.ID)
	case c.CoalesceSegment == 0 || c.CoalesceSegment&(c.CoalesceSegment-1) != 0:
		return fmt.Errorf("sm %d: coalesce segment must be a power of two", c.ID)
	case c.SharedBanks <= 0:
		return fmt.Errorf("sm %d: shared banks must be positive", c.ID)
	case (c.L1Enabled || c.L1LocalEnabled) && c.L1.Validate() != nil:
		return fmt.Errorf("sm %d: L1: %w", c.ID, c.L1.Validate())
	}
	return nil
}

// LimitWarps is the one warp-limit rule, of the MaxWarps override and the
// occupancy sweep: it caps c at w warps, with a block slot per four warps.
func (c *Config) LimitWarps(w int) error {
	if w < 1 || w > c.MaxWarps {
		return fmt.Errorf("sm: warp limit %d outside 1..%d", w, c.MaxWarps)
	}
	c.MaxWarps, c.MaxBlocks = w, min(c.MaxBlocks, (w+3)/4)
	return nil
}

// Kernel bundles everything needed to launch a grid.
type Kernel struct {
	Program *isa.Program
	// Params are the launch parameters readable via S2R PARAM.
	Params []uint32
	// BlockDim is threads per block; GridDim is blocks per grid (1-D).
	BlockDim int
	GridDim  int
	// SharedBytes is the per-block scratchpad allocation.
	SharedBytes uint32
	// LocalBase and LocalBytesPerThread place thread-private "local"
	// memory in the global address space with word interleaving across
	// threads (so unit-offset local accesses coalesce, as on hardware).
	LocalBase           uint64
	LocalBytesPerThread uint32
}

// TotalThreads returns GridDim*BlockDim.
func (k *Kernel) TotalThreads() int { return k.BlockDim * k.GridDim }

// WarpsPerBlock returns the warps needed to cover BlockDim.
func (k *Kernel) WarpsPerBlock(warpSize int) int {
	return (k.BlockDim + warpSize - 1) / warpSize
}

// blockSlot is one resident block's bookkeeping.
type blockSlot struct {
	active         bool
	ctaid          int
	kernel         *Kernel
	kernelID       int   // device-wide launch sequence (per-kernel attribution)
	warps          []int // warp slot indices
	shared         []uint32
	barrierArrived int
	liveWarps      int
	launchSeq      uint64
}

// completion finishes one memory transaction for a warp mem instruction.
type completion struct {
	mi  *memInst
	req *mem.Request
}

// SM is one streaming multiprocessor instance.
type SM struct {
	cfg    Config
	memory *mem.Memory

	warps     []*warp.Warp // indexed by warp slot; nil when free
	warpSeq   []uint64     // launch sequence for GTO oldest ordering
	blockedTo []sim.Cycle  // warp issue blocked until cycle (branch delay)
	blocks    []blockSlot

	// The scoreboard: for each register and predicate of each warp slot,
	// the cycle its latest result lands, indexed [slot*64+reg] /
	// [slot*8+pred]. Arithmetic issue writes issue + ALULatency; a load
	// writes Never and its completion writes 0. LaunchBlock zeroes the
	// slot, so nothing an earlier occupant left in flight reaches the new
	// warp. landsBy is the latest cycle an issued arithmetic result lands:
	// the SM stays busy until it has ticked at that cycle (ticked is the
	// cycle of its last Tick, settled the cycle through which its
	// per-cycle counters are accounted; see Settle).
	regReady, predReady      []sim.Cycle
	landsBy, ticked, settled sim.Cycle

	// Issue-stage readiness as maintained state, one bit per warp slot:
	// resident (slot occupied), live (resident, not done, not at a
	// barrier), sbClear (live and no operand of its next instruction waits
	// on a load) and memNext (live and that instruction needs an
	// LDST-queue slot); need caches each live warp's next-instruction
	// requirement and readyAt the cycle from which it may issue — the
	// latest of blockedTo and its operands' release times. refreshWarp is
	// the only writer. activeBlocks counts resident blocks.
	resident, live, sbClear, memNext uint64
	need                             []isa.IssueNeed
	readyAt                          []sim.Cycle
	activeBlocks                     int

	ldstQ  *sim.Queue[*memInst]
	missQ  *sim.Queue[*mem.Request]
	respQ  *sim.Queue[*mem.Request]
	l1     *cache.Cache
	retire *sim.Calendar[completion] // delivers at writeback time

	// outstanding maps request ID → transaction bookkeeping. Values, not
	// pointers: entries are written once and deleted on completion, so
	// the steady-state insert-after-delete churn reuses map buckets
	// without heap traffic.
	outstanding map[uint64]txnCtx

	// ldstBlockedOn remembers the LDST-queue head whose last transaction
	// attempt the L1 refused (MSHRs exhausted, merge slots exhausted, or
	// no evictable way). All three release only via an L1 fill, which
	// happens exclusively in this SM's own response processing. While the
	// same instruction is still at the head, re-ticking the LDST unit is a
	// provable no-op (the retry's only effects — a cache reservation-fail
	// count, replayed by Settle, and an LRU stamp advance that preserves
	// relative LRU order), so NextEvent drops the LDST term and the SM
	// sleeps until a response arrives. Cleared by every other attempt.
	ldstBlockedOn *memInst

	newReqID func() uint64
	observer mem.Observer

	// onBlockRetire, when set, is called once per retired block with the
	// retire cycle and the block's kernel ID — the dispatcher's per-
	// kernel completion tracking hangs off it.
	onBlockRetire func(c sim.Cycle, kernelID int)

	lastSched  int
	greedyWarp int
	launchSeq  uint64
	instSeq    uint64

	stats Stats

	// issuedThisCycle counts the instructions issued in the last ticked
	// cycle. issueCycles counts the cycles before the current one in
	// which the SM issued at least one: Tick folds the last ticked
	// cycle in before anything else runs, and the cycles the event
	// engine skips issue nothing. A tracked load carries the count taken
	// at its issue and at its retire (mem.StageLog.IssueStamp,
	// ReturnStamp); their difference is the latency it hid.
	issuedThisCycle int
	issueCycles     uint64

	// Deferred global stores and atomics. A tick never writes the
	// functional global store: stores and atomics append to memLog and
	// shadow themselves in memOvl, so this SM's own later loads observe
	// them while every other SM ticking in the same cycle still reads the
	// committed words. FlushCycle commits the log.
	memLog []memOp
	memOvl map[uint64]ovlEntry

	// Shared bank-conflict scratch, reused across processShared calls so
	// the steady-state path allocates nothing: bankWords[b] collects the
	// distinct (wrapped) word indices touched in bank b by the current
	// instruction; touchedBanks lists the dirty entries so the reset is
	// O(banks touched), not O(banks).
	bankWords    [][]uint64
	touchedBanks []int

	// coalesce is the per-SM scratch buffer behind mem.Coalesce's flat
	// rewrite; its result is consumed before the next coalesce (only the
	// LDST-queue head ever coalesces, and strictly after the previous
	// head popped).
	coalesce mem.CoalesceScratch

	// reqPool recycles Request/StageLog objects device-wide (nil means
	// plain allocation); miFree recycles this SM's memInst objects. A
	// memInst is recycled at finishMemInst, where provably nothing
	// references it: it left the LDST queue when its last transaction
	// issued, its outstanding map entries are deleted, and ldstBlockedOn
	// is cleared on every successful issue attempt.
	reqPool *mem.RequestPool
	miFree  []*memInst
}

// memOp is one deferred functional-memory effect, replayed in program
// order by FlushCycle.
type memOp struct {
	atom bool
	addr uint64
	val  uint32 // store value, or atomic add operand
	// Atomics write the pre-add word back to a lane register; its word in
	// the warp's destination row (nil when Dst is RZ) is captured here
	// because the old value is only known at commit. Deferring the write
	// is safe: the destination is scoreboarded until the atomic's response
	// returns, cycles later.
	old *uint32
}

// ovlEntry shadows a deferred word so this SM's later same-cycle loads
// observe it: abs entries carry a full value (a store happened); plain
// entries accumulate atomic deltas over the committed word.
type ovlEntry struct {
	abs   bool
	val   uint32
	delta uint32
}

type txnCtx struct {
	mi        *memInst
	fillL1    bool
	blockAddr uint64
}

// Stats counts SM activity.
type Stats struct {
	Cycles          uint64
	InstIssued      uint64
	LoadsIssued     uint64
	StoresIssued    uint64
	IssueStallSB    uint64 // scoreboard hazard
	IssueStallLDST  uint64 // LDST queue full
	IssueStallEmpty uint64 // no ready warp at all
	L1Hits          uint64
	L1Misses        uint64
	L1MergedMisses  uint64
	SharedConflicts uint64
	BlocksRetired   uint64
}

// New constructs an SM. memory is the functional global store shared by
// the whole GPU; newReqID must return unique request IDs; observer
// receives tracked-request completions (may be nil).
func New(cfg Config, memory *mem.Memory, newReqID func() uint64, observer mem.Observer) *SM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if observer == nil {
		observer = mem.NopObserver{}
	}
	name := fmt.Sprintf("sm%d", cfg.ID)
	s := &SM{
		cfg:         cfg,
		memory:      memory,
		warps:       make([]*warp.Warp, cfg.MaxWarps),
		warpSeq:     make([]uint64, cfg.MaxWarps),
		blockedTo:   make([]sim.Cycle, cfg.MaxWarps),
		regReady:    make([]sim.Cycle, cfg.MaxWarps*64),
		predReady:   make([]sim.Cycle, cfg.MaxWarps*8),
		need:        make([]isa.IssueNeed, cfg.MaxWarps),
		readyAt:     make([]sim.Cycle, cfg.MaxWarps),
		blocks:      make([]blockSlot, cfg.MaxBlocks),
		ldstQ:       sim.NewQueue[*memInst](name+".ldst", cfg.LDSTQueueDepth, cfg.LDSTIssueLatency),
		missQ:       sim.NewQueue[*mem.Request](name+".miss", cfg.MissQueueDepth, 0),
		respQ:       sim.NewQueue[*mem.Request](name+".resp", cfg.ResponseQueueDepth, 0),
		retire:      sim.NewCalendar[completion](),
		outstanding: make(map[uint64]txnCtx),
		newReqID:    newReqID,
		observer:    observer,
		memOvl:      make(map[uint64]ovlEntry),
		bankWords:   make([][]uint64, cfg.SharedBanks),
	}
	if cfg.L1Enabled || cfg.L1LocalEnabled {
		s.l1 = cache.New(cfg.L1)
	}
	return s
}

// SetRequestPool wires the device-wide request free list. The GPU calls
// it once at construction; standalone SMs (tests) may leave it unset and
// run unpooled. Must not be called while a simulation is in flight.
func (s *SM) SetRequestPool(p *mem.RequestPool) { s.reqPool = p }

// Config returns the SM configuration.
func (s *SM) Config() Config { return s.cfg }

// Stats returns a snapshot of the counters.
func (s *SM) Stats() Stats { return s.stats }

// Release drops everything but the SM's config and counters: its warps,
// scoreboard, queues, L1 and free lists. A released SM must not tick.
func (s *SM) Release() { *s = SM{cfg: s.cfg, stats: s.stats} }

// L1 exposes the data cache (nil when absent).
func (s *SM) L1() *cache.Cache { return s.l1 }

// FreeBlockSlot returns a free block slot index, or -1.
func (s *SM) FreeBlockSlot() int {
	for i := range s.blocks {
		if !s.blocks[i].active {
			return i
		}
	}
	return -1
}

// freeWarps returns the number of free warp slots.
func (s *SM) freeWarps() int { return s.cfg.MaxWarps - bits.OnesCount64(s.resident) }

// CanLaunch reports whether a block of kernel k fits right now.
func (s *SM) CanLaunch(k *Kernel) bool {
	return s.activeBlocks < len(s.blocks) && s.freeWarps() >= k.WarpsPerBlock(s.cfg.WarpSize)
}

// SetBlockRetireObserver installs the per-block retire hook (called with
// the retire cycle and the retiring block's kernel ID). The GPU wires it
// to the stream dispatcher's completion tracking.
func (s *SM) SetBlockRetireObserver(fn func(c sim.Cycle, kernelID int)) {
	s.onBlockRetire = fn
}

// LaunchBlock makes block ctaid of kernel k resident, attributed to the
// device-wide kernel launch sequence kernelID. It panics if the block
// does not fit; call CanLaunch first.
func (s *SM) LaunchBlock(k *Kernel, ctaid int, kernelID int) {
	slot := s.FreeBlockSlot()
	nw := k.WarpsPerBlock(s.cfg.WarpSize)
	if slot < 0 || s.freeWarps() < nw {
		panic(fmt.Sprintf("sm %d: block does not fit", s.cfg.ID))
	}
	s.launchSeq++
	s.activeBlocks++
	bs := &s.blocks[slot]
	// The lowest free slots, ascending, in the slot's previous backing
	// array (a retired block's slot list is dead).
	warpSlots := bs.warps[:0]
	for free := ^s.resident; len(warpSlots) < nw; free &= free - 1 {
		warpSlots = append(warpSlots, bits.TrailingZeros64(free))
	}
	*bs = blockSlot{
		active:    true,
		ctaid:     ctaid,
		kernel:    k,
		kernelID:  kernelID,
		warps:     warpSlots,
		shared:    make([]uint32, (k.SharedBytes+3)/4),
		liveWarps: nw,
		launchSeq: s.launchSeq,
	}
	for wi, ws := range warpSlots {
		lanes := s.cfg.WarpSize
		if rem := k.BlockDim - wi*s.cfg.WarpSize; rem < lanes {
			lanes = rem
		}
		w := warp.New(ws, slot, k.Program, s.cfg.WarpSize, lanes)
		w.TIDBase = uint32(wi * s.cfg.WarpSize)
		w.NTID = uint32(k.BlockDim)
		w.CTAID = uint32(ctaid)
		w.NCTAID = uint32(k.GridDim)
		w.WarpID = uint32(wi)
		w.SMID = uint32(s.cfg.ID)
		w.Params = k.Params
		s.warps[ws] = w
		s.warpSeq[ws] = s.launchSeq*1024 + uint64(wi)
		s.blockedTo[ws] = 0
		clear(s.regReady[ws*64 : ws*64+64])
		clear(s.predReady[ws*8 : ws*8+8])
		s.refreshWarp(ws)
	}
}

// Busy reports whether any warp is resident, any memory transaction is
// in flight, or an arithmetic result has yet to land.
func (s *SM) Busy() bool {
	return s.activeBlocks > 0 || s.landsBy > s.ticked || len(s.outstanding) > 0 ||
		s.ldstQ.Len()+s.missQ.Len()+s.respQ.Len()+s.retire.Len() > 0
}

// NextEvent implements the event-driven kernel's horizon contract. The
// SM can act when a retire event or the LDST queue head comes due (an
// L1-parked head excepted, see ldstBlockedOn), or when a warp's readyAt
// arrives while the LDST queue could take its instruction. Buffered
// handoffs — responses to process, misses awaiting network injection —
// pin the horizon at now, so the SM is ticked every cycle one is held,
// and an LDST retry behind a full miss queue runs exactly as under the
// cycle-driven loop. Warps waiting on a load need no term of their own:
// its completion is a retire or a response.
//
// A landing arithmetic result changes nothing by itself: the warps that
// read it carry its release time in their readyAt. The one exception is
// liveness: with no block left and no other term, the SM must still wake
// when its last result lands so the device can report itself done.
func (s *SM) NextEvent(now sim.Cycle) sim.Cycle {
	if !s.Busy() {
		return sim.Never
	}
	if s.respQ.Len() > 0 || s.missQ.Len() > 0 {
		return now
	}
	// Every term below is floored at now, so the horizon cannot improve
	// once it reaches now — return immediately and skip the remaining
	// scans. This is the event engine's re-arm hot path: it runs after
	// every core tick.
	h := sim.Never
	if s.retire.Len() > 0 {
		if h = min(h, max(now, s.retire.NextReady())); h == now {
			return now
		}
	}
	if s.ldstQ.Len() > 0 && !s.ldstHeadParked() {
		if h = min(h, max(now, s.ldstQ.NextReady())); h == now {
			return now
		}
	}
	// A full LDST queue frees only inside a Tick the queue's own term
	// already schedules, so warps that need it carry no term.
	cand := s.sbClear
	if !s.ldstQ.CanPush() {
		cand &^= s.memNext
	}
	for ; cand != 0; cand &= cand - 1 {
		if h = min(h, max(now, s.readyAt[bits.TrailingZeros64(cand)])); h == now {
			return now
		}
	}
	if h == sim.Never && s.activeBlocks == 0 && s.landsBy > s.ticked {
		h = max(now, s.landsBy)
	}
	return h
}

// ldstHeadParked reports whether re-ticking the LDST unit is a provable
// no-op: the L1 refused the head's last transaction attempt. The release
// is a fill, which only this SM's own response processing performs — and
// a buffered response already pins the horizon at now.
func (s *SM) ldstHeadParked() bool {
	head, ok := s.ldstQ.Head()
	return ok && s.ldstBlockedOn != nil && head == s.ldstBlockedOn
}

// DebugState renders the SM's full semantic state — warps, the cycle each
// can next issue, delay windows, buffer occupancy, the last landing — for
// the engine-equivalence audit. Every value it prints is written by a
// Tick or a launch, never by the passage of time, so a device that slept
// through quiet cycles and one that ticked them render identically.
func (s *SM) DebugState() string {
	var b strings.Builder
	for ws, w := range s.warps {
		if w == nil {
			continue
		}
		fmt.Fprintf(&b, "w%d={pc=%d m=%#x d=%v b=%v at=%d to=%d} ",
			ws, w.PC(), w.ActiveMask(), w.Done(), w.AtBarrier, s.readyAt[ws], s.blockedTo[ws])
	}
	fmt.Fprintf(&b, "ldst=%d@%d miss=%d resp=%d lands=%d ret=%d@%d out=%d sched=%d/%d",
		s.ldstQ.Len(), s.ldstQ.NextReady(), s.missQ.Len(), s.respQ.Len(),
		s.landsBy, s.retire.Len(), s.retire.NextReady(),
		len(s.outstanding), s.lastSched, s.greedyWarp)
	return b.String()
}

// AuditReadiness reports an error when the maintained readiness state
// differs from what refreshWarp recomputes for every slot, i.e. when a
// state change slipped past the refresh points. It is O(slots) and meant
// for tests and the engine's wake audit.
func (s *SM) AuditReadiness() error {
	masks := [...]uint64{s.resident, s.live, s.sbClear, s.memNext}
	need, readyAt := slices.Clone(s.need), slices.Clone(s.readyAt)
	for ws := range s.warps {
		s.refreshWarp(ws)
	}
	if now := [...]uint64{s.resident, s.live, s.sbClear, s.memNext}; masks != now ||
		!slices.Equal(need, s.need) || !slices.Equal(readyAt, s.readyAt) {
		return fmt.Errorf("sm %d: stale readiness state: resident/live/sbClear/memNext %#x, recomputed %#x",
			s.cfg.ID, masks, now)
	}
	return nil
}

// Settle counts the cycles after settled through `through`, in which the
// SM was not ticked, as the cycle-driven loop would have: a busy SM's
// cycle and, with warps resident, its empty issue slots, and one L1
// ReservationFail a cycle for an LDST head parked on one. It reads the
// SM's state at the call, so Tick settles through c-1 first and the
// dispatcher before LaunchBlock. Transfers need none: a response comes
// only for an outstanding load, so the SM is busy before and after it,
// and a miss is popped only from an SM ticked the cycle before, so its
// span is empty. A `through` of Never (c-1 at cycle 0) settles nothing.
func (s *SM) Settle(through sim.Cycle) {
	if through == sim.Never || through <= s.settled {
		return
	}
	delta := uint64(through - s.settled)
	s.settled = through
	if !s.Busy() {
		return
	}
	s.stats.Cycles += delta
	if s.activeBlocks > 0 {
		s.stats.IssueStallEmpty += delta * uint64(s.cfg.IssueWidth)
	}
	if s.ldstHeadParked() {
		s.l1.AddReservationFails(delta)
	}
}

// IssuedThisCycle returns the instructions issued in the current cycle
// (valid after Tick).
func (s *SM) IssuedThisCycle() int { return s.issuedThisCycle }

// PopMiss removes the next outbound memory request for network injection.
func (s *SM) PopMiss(c sim.Cycle) (*mem.Request, bool) { return s.missQ.Pop(c) }

// PeekMiss inspects the next outbound request.
func (s *SM) PeekMiss(c sim.Cycle) (*mem.Request, bool) { return s.missQ.Peek(c) }

// MissQueued reports whether a request waits for network injection.
func (s *SM) MissQueued() bool { return s.missQ.Len() > 0 }

// CanAcceptResponse reports whether the response queue has room.
func (s *SM) CanAcceptResponse() bool { return s.respQ.CanPush() }

// AcceptResponse receives a reply from the network.
func (s *SM) AcceptResponse(c sim.Cycle, r *mem.Request) { s.respQ.Push(c, r) }

// Tick advances the SM one cycle: load writeback, memory responses, the
// LDST unit, then instruction issue (downstream-first ordering).
func (s *SM) Tick(c sim.Cycle) {
	s.tickFront(c)
	s.issue(c)
}

// tickFront is Tick up to the issue stage: it settles the cycles before
// c, counts c, folds the last ticked cycle's issue into issueCycles, then
// runs writeback, responses and the LDST unit.
func (s *SM) tickFront(c sim.Cycle) {
	s.Settle(c - 1)
	s.settled = c
	s.stats.Cycles++
	if s.issuedThisCycle > 0 {
		s.issueCycles++
	}
	s.issuedThisCycle = 0
	s.ticked = c
	s.drainRetire(c)
	s.processResponses(c)
	s.tickLDST(c)
}

// readGlobal reads the functional global store as this SM's deferred
// ops would leave it: the cycle's overlay first, the committed word
// otherwise.
func (s *SM) readGlobal(addr uint64) uint32 {
	if len(s.memOvl) != 0 {
		if e, ok := s.memOvl[addr]; ok {
			if e.abs {
				return e.val
			}
			return s.memory.Load32(addr) + e.delta
		}
	}
	return s.memory.Load32(addr)
}

// deferStore queues a functional store for commit at FlushCycle.
func (s *SM) deferStore(addr uint64, v uint32) {
	s.memLog = append(s.memLog, memOp{addr: addr, val: v})
	s.memOvl[addr] = ovlEntry{abs: true, val: v}
}

// deferAtom queues a functional atomic add; the lane's old-value write
// happens at commit, where the pre-add word is known.
func (s *SM) deferAtom(addr uint64, delta uint32, old *uint32) {
	s.memLog = append(s.memLog, memOp{atom: true, addr: addr, val: delta, old: old})
	e := s.memOvl[addr]
	if e.abs {
		e.val += delta
	} else {
		e.delta += delta
	}
	s.memOvl[addr] = e
}

// FlushCycle commits the cycle's deferred global stores and atomics in
// program order (atomics read-modify-write the committed store and
// deliver old values to their lanes). The commit point is part of the
// timing model: the GPU calls it once per ticked SM, in SM index order,
// after every SM has ticked, so a store becomes visible to other SMs
// from the next cycle on and same-cycle atomics from different SMs
// resolve in SM index order. Standalone harnesses driving Tick directly
// (tests) must call it after each Tick.
func (s *SM) FlushCycle() {
	if len(s.memLog) == 0 {
		return
	}
	for i := range s.memLog {
		op := &s.memLog[i]
		if op.atom {
			old := s.memory.Load32(op.addr)
			s.memory.Store32(op.addr, old+op.val)
			if op.old != nil {
				*op.old = old
			}
		} else {
			s.memory.Store32(op.addr, op.val)
		}
	}
	s.memLog = s.memLog[:0]
	clear(s.memOvl)
}

func (s *SM) drainRetire(c sim.Cycle) {
	for _, comp := range s.retire.Ready(c) {
		s.completeTransaction(c, comp)
	}
}

// completeTransaction finishes one memory transaction at writeback time.
func (s *SM) completeTransaction(c sim.Cycle, comp completion) {
	if comp.req != nil && comp.req.Log != nil {
		comp.req.Log.Mark(mem.PtReturnSM, c)
		comp.req.Log.ReturnStamp = s.issueCycles
		// The observer delivery is the tracked load's retire point; per
		// the Observer contract the request is dead afterwards and its
		// objects go back to the pool.
		s.observer.RequestDone(c, comp.req)
		s.reqPool.Put(comp.req)
	}
	mi := comp.mi
	if mi == nil {
		return
	}
	mi.outstanding--
	if mi.outstanding == 0 && mi.issuedAll {
		s.finishMemInst(mi)
	}
}

// finishMemInst marks the destination register of a completed warp
// memory instruction landed and recycles it (finishMemInst is called
// exactly once per memInst, after its last reference left every queue).
// A warp may EXIT with a load or atomic still in flight; if its slot has
// been relaunched since, the register belongs to the new occupant and the
// stale completion must not touch it.
func (s *SM) finishMemInst(mi *memInst) {
	if mi.op.WritesDst() && mi.dst != isa.RZ && s.warpSeq[mi.warpSlot] == mi.warpSeq {
		s.regReady[mi.warpSlot*64+int(mi.dst)] = 0
		s.refreshWarp(mi.warpSlot)
	}
	s.miFree = append(s.miFree, mi)
}

// retireWarpIfDone updates block bookkeeping when a warp completes.
func (s *SM) retireWarpIfDone(c sim.Cycle, ws int) {
	w := s.warps[ws]
	if w == nil || !w.Done() {
		return
	}
	bs := &s.blocks[w.BlockSlot]
	bs.liveWarps--
	s.warps[ws] = nil
	s.refreshWarp(ws)
	s.releaseBarrierIfComplete(w.BlockSlot)
	if bs.liveWarps == 0 {
		bs.active = false
		s.activeBlocks--
		s.stats.BlocksRetired++
		if s.onBlockRetire != nil {
			s.onBlockRetire(c, bs.kernelID)
		}
	}
}
