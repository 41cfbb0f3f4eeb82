// Package mempart models one GPU memory partition: the ROP (raster
// operations) delay stage requests traverse on arrival, the L2 access
// queue, one L2 cache slice, and one DRAM channel, plus the return queue
// toward the reply network. The partition stamps the PtROPArrive,
// PtL2QArrive and PtDRAMQArrive boundaries of the paper's latency
// breakdown; the DRAM channel stamps scheduling and completion.
//
// Under the event engine the partition wakes (NextEvent) when a ROP or
// hit-pipe item, the L2 queue head, or the DRAM channel comes due, and
// is ticked every cycle a finished reply sits in the return queue (it
// pins the horizon at now). An L2 head parked on backpressure (a full
// hit pipe or DRAM queue, no DRAM slot, a reservation failure, a blocked
// writeback) drops its term — the retry is a provable no-op until the
// blocking resource frees inside a Tick — and Settle replays the retry
// counters the cycle-driven loop would have recorded.
package mempart

import (
	"fmt"

	"gpulat/internal/cache"
	"gpulat/internal/dram"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// Config describes one memory partition.
type Config struct {
	ID int
	// ROPLatency is the fixed delay from interconnect ejection to L2
	// queue eligibility; ROPQueueDepth bounds the stage.
	ROPLatency    sim.Cycle
	ROPQueueDepth int
	// L2QueueDepth bounds the L2 access queue.
	L2QueueDepth int
	// L2Enabled selects whether the partition has an L2 slice at all;
	// the Tesla (GT200) generation has no cache in the global memory
	// pipeline, so requests flow ROP → DRAM directly.
	L2Enabled bool
	// L2 is the cache slice geometry; L2.HitLatency is applied to every
	// L2 lookup (hit or miss detection). Ignored when L2Enabled is
	// false.
	L2 cache.Config
	// DRAM is the attached channel.
	DRAM dram.Config
	// ReturnQueueDepth bounds the reply queue toward the interconnect.
	ReturnQueueDepth int
}

func (c Config) validate() error {
	switch {
	case c.ROPQueueDepth <= 0:
		return fmt.Errorf("mempart %d: ROP queue depth must be positive", c.ID)
	case c.L2QueueDepth <= 0:
		return fmt.Errorf("mempart %d: L2 queue depth must be positive", c.ID)
	case c.ReturnQueueDepth <= 0:
		return fmt.Errorf("mempart %d: return queue depth must be positive", c.ID)
	}
	return nil
}

// Partition is one memory partition instance.
type Partition struct {
	cfg Config

	rop  *sim.Queue[*mem.Request]
	l2q  *sim.Queue[*mem.Request]
	l2   *cache.Cache
	hit  *sim.Queue[*mem.Request] // L2 hit pipeline (latency = L2 hit latency)
	dram *dram.Channel
	ret  *sim.Queue[*mem.Request]

	// hitAdmit is the hit-pipe occupancy at which load lookups stop (see
	// New); the pipe's capacity is larger by the fill-burst headroom.
	hitAdmit int

	// pendingWB buffers a dirty-eviction writeback that could not enter
	// the DRAM queue the cycle it was produced.
	pendingWB *mem.Request

	// l2Blocked/l2ParkReason record that the last accessL2 pass found the
	// L2 queue head structurally blocked. While the park holds, a retry
	// is a provable no-op apart from its per-cycle stall observations,
	// which Settle replays for the cycles the partition sleeps. Every
	// accessL2 pass re-evaluates the park; l2HeadParked checks the
	// releasing conditions live.
	l2Blocked    *mem.Request
	l2ParkReason l2Park

	settled sim.Cycle // stall counters are accounted through it (Settle)

	// pool recycles Request objects device-wide (nil: plain allocation).
	// The partition releases requests at their retire points — drained
	// stores and eviction writebacks, and store-miss fill carriers after
	// their merged requests are finished — and acquires the writeback and
	// fetch-carrier requests it generates.
	pool *mem.RequestPool

	stats Stats
}

// l2Park enumerates why the L2 queue head is parked.
type l2Park uint8

const (
	parkNone l2Park = iota
	// parkHitPipe: load head with a full hit pipe (L2Stalls per cycle).
	parkHitPipe
	// parkDRAMSlots: would-miss head with <2 free DRAM slots (L2Stalls
	// and a DRAM stall mark per cycle).
	parkDRAMSlots
	// parkResv: L2 reservation failure — MSHRs or victim ways exhausted
	// (L2Stalls per cycle); released only by a fill.
	parkResv
	// parkDRAMFull: no-L2 (Tesla) path with a full DRAM queue (L2Stalls
	// and a DRAM stall mark per cycle).
	parkDRAMFull
	// parkWB: deferred eviction writeback blocking on a full DRAM queue
	// (a DRAM stall mark per cycle, no L2Stall).
	parkWB
)

// Stats counts partition activity.
type Stats struct {
	Arrivals      uint64
	L2Hits        uint64
	L2Misses      uint64
	L2Stalls      uint64 // L2 access blocked (reservation fail / downstream full)
	StoresDrained uint64
	Writebacks    uint64
}

// New constructs a partition; it panics on invalid configuration.
func New(cfg Config) *Partition {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	name := fmt.Sprintf("part%d", cfg.ID)
	// Load lookups are admitted while the hit pipe holds fewer than
	// hitAdmit requests: every MSHR entry filling at maximum merge plus
	// everything buffered upstream. The pipe also absorbs, unconditionally
	// (finish), fill bursts that overflow the return queue. At the
	// admission limit no load is looked up, so the loads already parked
	// at the MSHRs — at most mshrLoads — are all that can still land on
	// top of the admitted hits; the capacity adds exactly that headroom.
	mshrLoads := cfg.L2.MSHREntries * cfg.L2.MSHRMaxMerge
	hitAdmit := mshrLoads + cfg.L2QueueDepth + cfg.ReturnQueueDepth
	// A queue with traversal latency L holds its in-flight entries for L
	// cycles, so sustaining one request per cycle requires capacity > L;
	// widen the configured depths accordingly (the configured depth is
	// the *buffering* beyond the pipeline occupancy).
	ropCap := cfg.ROPQueueDepth + int(cfg.ROPLatency)
	// The L2 lookup pipeline latency is charged in the L2 queue so both
	// hits and misses pay the tag-access time exactly once; the hit pipe
	// then only buffers completed hits toward the return queue.
	l2qLat := cfg.L2.HitLatency
	var l2 *cache.Cache
	if cfg.L2Enabled {
		l2 = cache.New(cfg.L2)
	} else {
		l2qLat = 0
	}
	return &Partition{
		cfg:  cfg,
		rop:  sim.NewQueue[*mem.Request](name+".rop", ropCap, cfg.ROPLatency),
		l2q:  sim.NewQueue[*mem.Request](name+".l2q", cfg.L2QueueDepth+int(l2qLat), l2qLat),
		l2:   l2,
		hit:  sim.NewQueue[*mem.Request](name+".l2hit", hitAdmit+mshrLoads, 0),
		dram: dram.NewChannel(cfg.DRAM),
		ret:  sim.NewQueue[*mem.Request](name+".ret", cfg.ReturnQueueDepth, 0),

		hitAdmit: hitAdmit,
	}
}

// SetRequestPool wires the device-wide request free list. The GPU calls
// it once at construction; standalone partitions (tests) may leave it
// unset and run unpooled.
func (p *Partition) SetRequestPool(pool *mem.RequestPool) { p.pool = pool }

// L2 exposes the cache slice for statistics and tests.
func (p *Partition) L2() *cache.Cache { return p.l2 }

// DRAM exposes the channel for statistics and tests.
func (p *Partition) DRAM() *dram.Channel { return p.dram }

// Stats returns a snapshot of the partition counters.
func (p *Partition) Stats() Stats { return p.stats }

// Release drops everything but the config and the counters of the
// partition and its DRAM channel. A released partition must not tick.
func (p *Partition) Release() {
	p.dram.Release()
	*p = Partition{cfg: p.cfg, dram: p.dram, stats: p.stats}
}

// CanAccept reports whether the ROP stage can take another request.
func (p *Partition) CanAccept() bool { return p.rop.CanPush() }

// Accept receives a request ejected from the request network at cycle c,
// stamping its ROP arrival.
func (p *Partition) Accept(c sim.Cycle, r *mem.Request) {
	if r.Log != nil {
		r.Log.Mark(mem.PtROPArrive, c)
	}
	p.rop.Push(c, r)
	p.stats.Arrivals++
}

// PopReturn removes the next reply headed to the SMs, if any.
func (p *Partition) PopReturn(c sim.Cycle) (*mem.Request, bool) {
	return p.ret.Pop(c)
}

// PeekReturn inspects the next reply without removing it.
func (p *Partition) PeekReturn(c sim.Cycle) (*mem.Request, bool) {
	return p.ret.Peek(c)
}

// ReturnQueued reports whether a reply waits for the reply network.
func (p *Partition) ReturnQueued() bool { return p.ret.Len() > 0 }

// Tick advances the partition one cycle. Stage order is downstream-first
// so a request cannot traverse more than one stage per cycle.
func (p *Partition) Tick(c sim.Cycle) {
	p.Settle(c - 1)
	p.settled = c
	p.drainDRAM(c)
	p.drainHitPipe(c)
	p.accessL2(c)
	p.moveROPToL2Q(c)
	p.dram.Tick(c)
}

// drainDRAM retires completed DRAM transactions: fills for reads (which
// complete all requests merged at the L2 MSHRs) and silent completion for
// writeback stores.
func (p *Partition) drainDRAM(c sim.Cycle) {
	for _, r := range p.dram.Completed(c) {
		if !p.cfg.L2Enabled {
			// No L2: every completion is a direct load return or a
			// store drain; finish handles both.
			p.finish(c, r)
			continue
		}
		if r.Kind == mem.KindStore {
			// Eviction writeback drained to DRAM; no reply. Retire point.
			p.pool.Put(r)
			continue
		}
		block := p.l2.BlockAddr(r.Addr)
		merged := p.l2.Fill(c, block)
		for _, m := range merged {
			if m != r {
				m.MergedInto = r
				if m.Log != nil {
					m.Log.MergedAtL2 = true
					mem.InheritMarks(m.Log, r.Log, mem.PtDRAMQArrive)
				}
			}
			p.finish(c, m)
		}
		// A fill carrier created for a store miss is not among the
		// merged requests' replies; it retires here, after the merged
		// loop's identity checks against it.
		if r.SM < 0 {
			p.pool.Put(r)
		}
	}
}

// finish routes a completed request: loads return to the SM, stores
// complete silently at the partition (GPU global stores are fire-and-
// forget from the SM's perspective).
func (p *Partition) finish(c sim.Cycle, r *mem.Request) {
	if r.Kind == mem.KindStore {
		p.stats.StoresDrained++
		p.pool.Put(r) // stores retire silently at the partition
		return
	}
	// The return queue was reserved before the L2 access/DRAM fill, but
	// fills can deliver bursts; tolerate transient overflow by a grow-
	// safe fallback: if full, requeue through the hit pipe with zero
	// effective extra latency next cycle.
	if p.ret.CanPush() {
		p.ret.Push(c, r)
	} else {
		p.hit.Push(c, r)
	}
}

// drainHitPipe moves L2-hit (and overflow) responses into the return
// queue as space allows.
func (p *Partition) drainHitPipe(c sim.Cycle) {
	for p.ret.CanPush() {
		r, ok := p.hit.Pop(c)
		if !ok {
			return
		}
		p.ret.Push(c, r)
	}
}

// accessL2 performs at most one L2 lookup per cycle on the L2 queue head.
// When the partition has no L2 (Tesla), requests pass straight to DRAM.
func (p *Partition) accessL2(c sim.Cycle) {
	r, ok := p.l2q.Peek(c)
	p.l2Blocked, p.l2ParkReason = nil, parkNone
	if !ok {
		return
	}
	if !p.cfg.L2Enabled {
		if !p.dram.CanPush() {
			p.dram.NoteStall()
			p.stats.L2Stalls++
			p.l2Blocked, p.l2ParkReason = r, parkDRAMFull
			return
		}
		p.l2q.Pop(c)
		if r.Log != nil {
			r.Log.Mark(mem.PtDRAMQArrive, c)
		}
		p.dram.Push(c, r)
		return
	}
	// A previously deferred eviction writeback takes priority for DRAM
	// queue space.
	if p.pendingWB != nil {
		if !p.dram.CanPush() {
			p.dram.NoteStall()
			p.l2Blocked, p.l2ParkReason = r, parkWB
			return
		}
		p.dram.Push(c, p.pendingWB)
		p.pendingWB = nil
	}

	// Space checks so an access never strands its result: a load hit
	// needs hit-pipe space; misses need a DRAM slot (plus one for a
	// possible dirty eviction). A side-effect-free tag probe tells the
	// two cases apart so DRAM backpressure never blocks L2 hits.
	if r.Kind == mem.KindLoad && p.hit.Len() >= p.hitAdmit {
		p.stats.L2Stalls++
		p.l2Blocked, p.l2ParkReason = r, parkHitPipe
		return
	}
	wouldHit := p.l2.Probe(r.Addr) != cache.Miss
	if !wouldHit && p.dram.FreeSlots() < 2 {
		p.stats.L2Stalls++
		p.dram.NoteStall()
		p.l2Blocked, p.l2ParkReason = r, parkDRAMSlots
		return
	}

	res := p.l2.Access(c, r)
	switch res.Status {
	case cache.Hit:
		p.l2q.Pop(c)
		p.stats.L2Hits++
		if r.Kind == mem.KindLoad {
			p.hit.Push(c, r)
		} else {
			p.stats.StoresDrained++
			p.pool.Put(r) // a store that hits retires here
		}
	case cache.HitReserved:
		// Parked on the MSHR; completes at fill time.
		p.l2q.Pop(c)
		p.stats.L2Misses++
	case cache.Miss:
		p.l2q.Pop(c)
		p.stats.L2Misses++
		if res.Writeback != nil {
			p.stats.Writebacks++
			wb := p.pool.Get(false)
			wb.Addr = res.Writeback.Addr
			wb.Size = res.Writeback.Size
			wb.Kind = mem.KindStore
			wb.SM, wb.Warp = -1, -1
			if p.dram.CanPush() {
				p.dram.Push(c, wb)
			} else {
				p.pendingWB = wb
			}
		}
		fetch := r
		if r.Kind == mem.KindStore {
			// Write-allocate: fetch the line with an untracked read
			// carrier; the store completes when the fill arrives.
			fetch = p.pool.Get(false)
			fetch.Addr = p.l2.BlockAddr(r.Addr)
			fetch.Size = p.cfg.L2.LineSize
			fetch.Kind = mem.KindLoad
			fetch.SM, fetch.Warp = -1, -1
		}
		if fetch.Log != nil {
			fetch.Log.Mark(mem.PtDRAMQArrive, c)
		}
		p.dram.Push(c, fetch)
	case cache.ReservationFail:
		p.stats.L2Stalls++
		p.l2Blocked, p.l2ParkReason = r, parkResv
	}
}

// moveROPToL2Q advances requests from the ROP stage into the L2 queue,
// stamping PtL2QArrive.
func (p *Partition) moveROPToL2Q(c sim.Cycle) {
	for p.l2q.CanPush() {
		r, ok := p.rop.Pop(c)
		if !ok {
			return
		}
		if r.Log != nil {
			r.Log.Mark(mem.PtL2QArrive, c)
		}
		p.l2q.Push(c, r)
	}
}

// NextEvent implements the event-driven kernel's horizon contract: the
// cycle at which the partition next does observable work. A buffered
// return pins it at now (the ret queue has no latency), so the partition
// is ticked every cycle the reply phase has something to move; with the
// return queue empty, the hit pipe can always drain. Otherwise: a DRAM
// completion or scheduling opportunity, a visible L2 queue head (every
// such cycle either performs a lookup or counts an observable L2 stall),
// or a ROP head with L2-queue space. A full L2 queue frees only through
// this partition's own lookups (covered by the l2q term), and a deferred
// writeback drains only on visible-L2-head cycles (ditto). Skipped
// cycles lose nothing but queue-level backpressure marks (sim.Queue
// stall counters), which are diagnostic-only and outside the engines'
// parity contract. L2 MSHR occupancy needs no term of its own: an
// outstanding fetch is always physically present in the DRAM queue or
// in flight, which the DRAM horizon covers.
func (p *Partition) NextEvent(now sim.Cycle) sim.Cycle {
	// Cheap queue-head terms first with early exits, so the saturated fast
	// path skips the DRAM channel scan (re-arm is the engine's hot path).
	// A parked head (see l2HeadParked) drops the l2q term: its retries are
	// provable no-ops whose stall observations Settle replays, and
	// every releasing event is covered by the remaining terms.
	if p.ret.Len() > 0 {
		return now
	}
	h := sim.Never
	if p.l2q.Len() > 0 && !p.l2HeadParked() {
		if h = max(now, p.l2q.NextReady()); h == now {
			return now
		}
	}
	if p.hit.Len() > 0 {
		if h = min(h, max(now, p.hit.NextReady())); h == now {
			return now
		}
	}
	if p.rop.Len() > 0 && p.l2q.CanPush() {
		if h = min(h, max(now, p.rop.NextReady())); h == now {
			return now
		}
	}
	return min(h, p.dram.NextEvent(now))
}

// l2HeadParked reports whether re-running accessL2 is a provable no-op
// apart from its per-cycle stall observations: the head's last pass
// failed on a structural stall whose releasing condition still holds.
// Every releasing event — a hit-pipe drain, a DRAM schedule or
// completion, a fill — happens inside this partition's own Tick, so the
// conditions are frozen while it sleeps.
func (p *Partition) l2HeadParked() bool {
	if p.l2Blocked == nil {
		return false
	}
	if head, ok := p.l2q.Head(); !ok || head != p.l2Blocked {
		return false
	}
	switch p.l2ParkReason {
	case parkHitPipe:
		return p.hit.Len() >= p.hitAdmit
	case parkDRAMSlots:
		return p.dram.FreeSlots() < 2
	case parkDRAMFull, parkWB:
		return !p.dram.CanPush()
	case parkResv:
		return true
	}
	return false
}

// Settle counts, for the cycles after settled through `through` in which
// the partition was not ticked, the stalls a parked L2 head's retry would
// have recorded each cycle: an L2 stall, and a DRAM stall mark for
// DRAM-space parks. Tick settles through c-1 first; Accept and PopReturn
// touch no park condition, so they need none. A `through` of Never (c-1
// at cycle 0) settles nothing.
func (p *Partition) Settle(through sim.Cycle) {
	if through == sim.Never || through <= p.settled {
		return
	}
	n := uint64(through - p.settled)
	p.settled = through
	if !p.l2HeadParked() {
		return
	}
	if p.l2ParkReason != parkWB {
		p.stats.L2Stalls += n
	}
	switch p.l2ParkReason {
	case parkResv:
		// The blocked pass reaches the cache before failing, so the
		// cache's own counter advances along with the partition's.
		p.l2.AddReservationFails(n)
	case parkDRAMSlots, parkDRAMFull, parkWB:
		p.dram.AddStalls(n)
	}
}

// Pending returns the number of requests buffered anywhere in the
// partition, including L2 misses outstanding at the MSHRs (the Drained
// check builds on it).
func (p *Partition) Pending() int {
	n := p.rop.Len() + p.l2q.Len() + p.hit.Len() + p.ret.Len() +
		p.dram.QueueLen() + p.dram.InflightLen() + p.mshrsInUse()
	if p.pendingWB != nil {
		n++
	}
	return n
}

// mshrsInUse counts the L2 MSHRs holding outstanding misses (0 without
// an L2).
func (p *Partition) mshrsInUse() int {
	if p.l2 == nil {
		return 0
	}
	return p.l2.MSHRsInUse()
}

// DebugState renders the partition's buffer occupancy and readiness for
// the engine-equivalence audit (the DRAM channel and L2 slice expose
// their own state).
func (p *Partition) DebugState() string {
	return fmt.Sprintf("rop=%d@%d l2q=%d@%d hit=%d ret=%d wb=%t mshr=%d",
		p.rop.Len(), p.rop.NextReady(), p.l2q.Len(), p.l2q.NextReady(),
		p.hit.Len(), p.ret.Len(), p.pendingWB != nil, p.mshrsInUse())
}

// Drained reports whether no request remains anywhere in the partition.
func (p *Partition) Drained() bool { return p.Pending() == 0 }
