// Package dram models one GDDR channel per memory partition: multiple
// banks with row-buffer state, DRAM timing constraints (tRCD, tRP, tCL,
// tRAS, tWR), a shared data bus, and a pluggable request scheduler (FCFS
// or FR-FCFS). The time a request spends waiting in the controller queue
// before the scheduler selects it is the paper's "DRAM(QtoSch)" stage —
// identified in Figure 1 as one of the two dominant latency contributors —
// and the activate/CAS/burst service time is "DRAM(SchToA)".
//
// Under the event engine the channel wakes its owning partition
// (NextEvent) when an in-flight access completes or a queued request
// first becomes schedulable — the exact cycle accounting for its bank's
// busy window, row state (tRCD/tRP+tRCD after a conflict, tRAS floor)
// AND data-bus arbitration. Both bounds are exact, not conservative:
// channel state only changes inside the owning partition's Tick, so the
// horizon computed at re-arm time stays valid until then.
package dram

import (
	"fmt"
	"math"
	"strings"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// SchedPolicy selects the request scheduling algorithm.
type SchedPolicy uint8

const (
	// FRFCFS (first-ready, first-come-first-served) prefers row-buffer
	// hits over older requests, maximizing row locality — the scheduler
	// modern GPUs use and the GPGPU-Sim default.
	FRFCFS SchedPolicy = iota
	// FCFS serves strictly in arrival order (head-of-line blocking);
	// the baseline the paper's "different DRAM scheduling algorithm"
	// remark invites comparison against.
	FCFS
	// FRFCFSCap is FR-FCFS with a row-hit streak cap: after CapStreak
	// consecutive row hits on a bank, the oldest request wins even if
	// it conflicts. This bounds the worst-case queueing delay of
	// row-missing requests — a concrete instance of the latency-aware
	// scheduling the paper's conclusion calls for.
	FRFCFSCap
)

// String names the policy.
func (p SchedPolicy) String() string {
	switch p {
	case FRFCFS:
		return "FR-FCFS"
	case FCFS:
		return "FCFS"
	case FRFCFSCap:
		return "FR-FCFS-cap"
	}
	return "sched(?)"
}

// Config describes one DRAM channel.
type Config struct {
	Name     string
	Banks    int
	RowBytes uint32 // row-buffer coverage per bank

	// Core-clock-domain timing parameters.
	TRCD sim.Cycle // activate → column command
	TRP  sim.Cycle // precharge duration
	TCL  sim.Cycle // column command → first data
	TRAS sim.Cycle // activate → earliest precharge
	TWR  sim.Cycle // write recovery before bank reuse
	// BurstCycles is the data-bus occupancy per request.
	BurstCycles sim.Cycle

	// QueueDepth bounds the controller queue (backpressure upstream).
	QueueDepth int
	Scheduler  SchedPolicy
	// CapStreak is the consecutive-row-hit limit for FRFCFSCap
	// (default 4 when zero).
	CapStreak int
}

func (c Config) validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("dram %s: banks must be positive", c.Name)
	case c.RowBytes == 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram %s: row bytes must be a power of two", c.Name)
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram %s: queue depth must be positive", c.Name)
	case c.BurstCycles == 0:
		return fmt.Errorf("dram %s: burst cycles must be positive", c.Name)
	}
	return nil
}

type bankState struct {
	rowOpen    bool
	openRow    uint64
	busyUntil  sim.Cycle
	lastActAt  sim.Cycle
	everActive bool
	// hitStreak counts consecutive row hits served (FRFCFSCap).
	hitStreak int
}

type pending struct {
	req     *mem.Request
	bank    int
	row     uint64
	arrived sim.Cycle
}

type inflight struct {
	req    *mem.Request
	finish sim.Cycle
}

// Channel is one DRAM channel instance.
type Channel struct {
	cfg   Config
	banks []bankState
	// queue is in arrival order (Push appends, Tick removes in place), so
	// the oldest of any set of entries is the one with the lowest index.
	// A value slice: entries are small and never escape.
	queue     []pending
	inflight  []inflight // sorted by finish
	busFreeAt sim.Cycle
	// completed is the reusable backing store for Completed's result.
	completed []*mem.Request

	stats Stats
}

// Stats counts channel activity.
type Stats struct {
	Scheduled    uint64
	RowHits      uint64
	RowOpens     uint64 // activate on a closed bank
	RowConflicts uint64 // precharge + activate
	QueueWaitSum uint64 // cycles from arrival to schedule
	Stalls       uint64 // Push rejected (queue full)
}

// NewChannel constructs a channel; it panics on invalid configuration.
func NewChannel(cfg Config) *Channel {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Channel{
		cfg:   cfg,
		banks: make([]bankState, cfg.Banks),
	}
}

// Stats returns a snapshot of the activity counters.
func (ch *Channel) Stats() Stats { return ch.stats }

// Release drops everything but the config and the counters.
func (ch *Channel) Release() { *ch = Channel{cfg: ch.cfg, stats: ch.stats} }

// QueueLen returns the number of requests awaiting scheduling.
func (ch *Channel) QueueLen() int { return len(ch.queue) }

// CanPush reports whether the controller queue has room.
func (ch *Channel) CanPush() bool { return len(ch.queue) < ch.cfg.QueueDepth }

// FreeSlots returns the number of queue entries still available; callers
// that must enqueue a fetch plus an eviction writeback atomically check
// for two free slots.
func (ch *Channel) FreeSlots() int { return ch.cfg.QueueDepth - len(ch.queue) }

// NoteStall records upstream backpressure for statistics.
func (ch *Channel) NoteStall() { ch.stats.Stalls++ }

// AddStalls credits n per-cycle stall marks without the cycles having
// run — the event engine's replay hook for skipped spans in which an
// upstream producer was provably blocked on a full queue every cycle.
func (ch *Channel) AddStalls(n uint64) { ch.stats.Stalls += n }

// decode maps an address to (bank, row). Banks are interleaved at row
// granularity across the address space within the channel.
func (ch *Channel) decode(addr uint64) (bank int, row uint64) {
	rowAddr := addr / uint64(ch.cfg.RowBytes)
	return int(rowAddr % uint64(ch.cfg.Banks)), rowAddr / uint64(ch.cfg.Banks)
}

// Push enqueues a request at cycle c; the caller must check CanPush.
// The request's PtDRAMQArrive point must already be marked by the caller.
func (ch *Channel) Push(c sim.Cycle, req *mem.Request) {
	if !ch.CanPush() {
		panic("dram: push to full queue: " + ch.cfg.Name)
	}
	bank, row := ch.decode(req.Addr)
	ch.queue = append(ch.queue, pending{req: req, bank: bank, row: row, arrived: c})
}

// Tick advances the channel one cycle: the scheduler may initiate service
// of at most one request (one column command per cycle).
func (ch *Channel) Tick(c sim.Cycle) {
	idx := ch.pick(c)
	if idx < 0 {
		return
	}
	p := ch.queue[idx] // copy out before the shift below invalidates idx
	ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
	ch.service(c, &p)
}

// casStart returns the cycle at which a request to row on bank b,
// commanded at c, issues its column access: at once on a row hit, after
// an activate on a closed bank, and after the tRAS floor, a precharge and
// an activate on a row conflict.
func (ch *Channel) casStart(c sim.Cycle, b *bankState, row uint64) sim.Cycle {
	switch {
	case b.rowOpen && b.openRow == row:
		return c
	case !b.rowOpen:
		return c + ch.cfg.TRCD
	}
	if b.everActive && b.lastActAt+ch.cfg.TRAS > c {
		c = b.lastActAt + ch.cfg.TRAS
	}
	return c + ch.cfg.TRP + ch.cfg.TRCD
}

// eligible reports whether the scheduler may start p at c: its bank is
// free, and its data would reach the bus without being delayed by it —
// commands only issue when their data slot is clear, so bus backpressure
// keeps requests in the queue; their wait is arbitration time (QtoSch),
// as in real controllers, not service time.
func (ch *Channel) eligible(c sim.Cycle, p *pending) bool {
	b := &ch.banks[p.bank]
	return b.busyUntil <= c && ch.casStart(c, b, p.row)+ch.cfg.TCL >= ch.busFreeAt
}

// pick returns the queue index of the request the scheduler starts at c,
// or -1. FCFS may only start the oldest request. FR-FCFS starts the
// oldest eligible row hit, else the oldest eligible request; FRFCFSCap
// does the same but stops counting a bank's hits as hits once they
// reach CapStreak in a row (plain FR-FCFS has no cap).
func (ch *Channel) pick(c sim.Cycle) int {
	if len(ch.queue) == 0 {
		return -1
	}
	cap := ch.cfg.CapStreak
	switch {
	case ch.cfg.Scheduler == FCFS:
		if ch.eligible(c, &ch.queue[0]) {
			return 0
		}
		return -1
	case ch.cfg.Scheduler != FRFCFSCap:
		cap = math.MaxInt
	case cap <= 0:
		cap = 4
	}
	oldest := -1
	for i := range ch.queue {
		p := &ch.queue[i]
		if !ch.eligible(c, p) {
			continue
		}
		if b := &ch.banks[p.bank]; b.rowOpen && b.openRow == p.row && b.hitStreak < cap {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (ch *Channel) service(c sim.Cycle, p *pending) {
	b := &ch.banks[p.bank]
	cfg := ch.cfg

	casStart := ch.casStart(c, b, p.row)
	if b.rowOpen && b.openRow == p.row {
		ch.stats.RowHits++
		b.hitStreak++
	} else {
		if b.rowOpen {
			ch.stats.RowConflicts++
		} else {
			ch.stats.RowOpens++
		}
		// The activate precedes the column access by tRCD.
		b.hitStreak = 0
		b.lastActAt = casStart - cfg.TRCD
	}
	b.rowOpen = true
	b.openRow = p.row
	b.everActive = true

	dataStart := max(casStart+cfg.TCL, ch.busFreeAt)
	finish := dataStart + cfg.BurstCycles
	ch.busFreeAt = finish

	// Column accesses pipeline: the bank is occupied for the burst
	// duration (its column-command cadence), not the full CAS latency;
	// the shared data bus (busFreeAt) provides the second throughput
	// bound. Writes add the write-recovery time before the bank can
	// serve again.
	b.busyUntil = casStart + cfg.BurstCycles
	if p.req.Kind == mem.KindStore {
		b.busyUntil = casStart + cfg.BurstCycles + cfg.TWR
	}

	if p.req.Log != nil {
		p.req.Log.Mark(mem.PtDRAMSched, c)
	}
	ch.stats.Scheduled++
	ch.stats.QueueWaitSum += uint64(c - p.arrived)

	// Insert into inflight, keeping sort by finish time then FIFO.
	pos := len(ch.inflight)
	for pos > 0 && ch.inflight[pos-1].finish > finish {
		pos--
	}
	ch.inflight = append(ch.inflight, inflight{})
	copy(ch.inflight[pos+1:], ch.inflight[pos:])
	ch.inflight[pos] = inflight{req: p.req, finish: finish}
}

// Completed removes and returns all requests whose data transfer has
// finished by cycle c, marking their PtDRAMDone point. The returned
// slice aliases a reusable buffer and is valid only until the next
// Completed call; the owning partition drains it within the same tick.
func (ch *Channel) Completed(c sim.Cycle) []*mem.Request {
	n := 0
	for n < len(ch.inflight) && ch.inflight[n].finish <= c {
		n++
	}
	if n == 0 {
		return nil
	}
	out := ch.completed[:0]
	for i := 0; i < n; i++ {
		r := ch.inflight[i].req
		if r.Log != nil {
			r.Log.Mark(mem.PtDRAMDone, ch.inflight[i].finish)
		}
		out = append(out, r)
	}
	ch.completed = out
	copy(ch.inflight, ch.inflight[n:])
	ch.inflight = ch.inflight[:len(ch.inflight)-n]
	return out
}

// InflightLen returns the number of requests in service (test hook).
func (ch *Channel) InflightLen() int { return len(ch.inflight) }

// earliestSchedulable returns the first cycle t >= now at which pick
// could schedule request p: its bank must be free (busyUntil <= t) and
// the data bus must accept the transfer (eligible at t). Both bounds are
// exact, because the channel's state only mutates inside its own Tick
// and the event kernel re-arms after every tick of the owning
// partition — so nothing the horizon depends on can change while it
// sleeps.
func (ch *Channel) earliestSchedulable(now sim.Cycle, p *pending) sim.Cycle {
	b := &ch.banks[p.bank]
	t := max(now, b.busyUntil)
	// eligible's bus test is casStart(t)+TCL >= busFreeAt, and casStart is
	// nondecreasing in t, so the bus constraint is a single threshold:
	// lift t up to it. off is the command-to-CAS distance implied by
	// p's row state.
	var off sim.Cycle
	switch {
	case b.rowOpen && b.openRow == p.row:
		off = 0
	case !b.rowOpen:
		off = ch.cfg.TRCD
	default:
		// Row conflict: casStart = max(t, lastActAt+TRAS) + TRP + TRCD.
		// If the tRAS floor alone clears the bus window, t is
		// unconstrained by the bus.
		off = ch.cfg.TRP + ch.cfg.TRCD
		if b.everActive && b.lastActAt+ch.cfg.TRAS+off+ch.cfg.TCL >= ch.busFreeAt {
			return t
		}
	}
	if ch.busFreeAt > off+ch.cfg.TCL {
		if want := ch.busFreeAt - off - ch.cfg.TCL; want > t {
			t = want
		}
	}
	return t
}

// NextEvent implements the event-driven kernel's horizon contract: the
// earliest cycle at or after now at which the channel can retire an
// in-flight transfer or schedule a queued request. Both the bank busy
// windows and the data-bus arbitration window (eligible) are exact bounds
// — under saturation the bus admits one CAS per burst, and modelling
// that here is what lets a backed-up partition sleep between bursts
// instead of polling a scheduler that cannot issue. Never means the
// channel is drained.
func (ch *Channel) NextEvent(now sim.Cycle) sim.Cycle {
	h := sim.Never
	if len(ch.inflight) > 0 {
		// inflight is sorted by finish time. The horizon is floored at
		// now, so once a term reaches it the scan is over (this is the
		// event engine's re-arm hot path).
		if h = max(now, ch.inflight[0].finish); h == now {
			return now
		}
	}
	if len(ch.queue) == 0 {
		return h
	}
	if ch.cfg.Scheduler == FCFS {
		// Only the oldest request can ever be scheduled.
		return min(h, ch.earliestSchedulable(now, &ch.queue[0]))
	}
	for i := range ch.queue {
		if t := ch.earliestSchedulable(now, &ch.queue[i]); t < h {
			if h = t; h == now {
				return now
			}
		}
	}
	return h
}

// DebugState renders the channel's full semantic state — banks, queue,
// in-flight transfers, bus — for the engine-equivalence audit: any state
// change a simulated cycle makes is visible here.
func (ch *Channel) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bus=%d", ch.busFreeAt)
	for i := range ch.banks {
		bk := &ch.banks[i]
		fmt.Fprintf(&b, " b%d={%v,%d,%d,%d,%d}", i, bk.rowOpen, bk.openRow, bk.busyUntil, bk.lastActAt, bk.hitStreak)
	}
	for _, p := range ch.queue {
		fmt.Fprintf(&b, " q{%d,%d,%d}", p.bank, p.row, p.arrived)
	}
	for _, f := range ch.inflight {
		fmt.Fprintf(&b, " f{%d,%d}", f.req.ID, f.finish)
	}
	return b.String()
}

// UnloadedReadLatency returns the analytic service latency of a single
// read on an idle channel with a closed (precharged) bank: tRCD + tCL +
// burst. Configuration presets use this to calibrate against Table I.
func (ch *Channel) UnloadedReadLatency() sim.Cycle {
	return ch.cfg.TRCD + ch.cfg.TCL + ch.cfg.BurstCycles
}
