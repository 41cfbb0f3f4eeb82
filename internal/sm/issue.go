package sm

import (
	"math/bits"

	"gpulat/internal/isa"
	"gpulat/internal/sim"
)

// issue runs the warp scheduler(s): up to IssueWidth instructions from
// distinct ready warps per cycle.
func (s *SM) issue(c sim.Cycle) {
	if s.activeBlocks == 0 {
		return
	}
	// issuedWarp is a warp-slot bitmask (validate caps MaxWarps at 64),
	// so the per-cycle exclude set costs no allocation.
	var issuedWarp uint64
	for slot := 0; slot < s.cfg.IssueWidth; slot++ {
		ws := s.pickWarp(c, issuedWarp)
		if ws < 0 {
			// No warp can issue this slot, so none can issue the remaining
			// slots either (a failed pick changes no state the next pick
			// reads). Account every leftover slot and skip the re-scans.
			s.stats.IssueStallEmpty += uint64(s.cfg.IssueWidth - slot)
			break
		}
		s.issueFrom(c, ws)
		issuedWarp |= 1 << ws
		s.lastSched = ws
		s.greedyWarp = ws
	}
}

// refreshWarp recomputes warp slot ws's readiness state — its resident,
// live, sbClear and memNext bits and cached need — from live state. It
// must run after every change to the slot's occupant, PC, barrier flag
// or scoreboard: LaunchBlock, the end of issueFrom, barrier release,
// drainExec, finishMemInst and retireWarpIfDone. Everything it caches is
// time-independent between those points; the two inputs that are not —
// the branch-delay window (blockedTo) and LDST-queue space — are read at
// pick time instead.
func (s *SM) refreshWarp(ws int) {
	bit := uint64(1) << ws
	s.resident &^= bit
	s.live &^= bit
	s.sbClear &^= bit
	s.memNext &^= bit
	w := s.warps[ws]
	if w == nil {
		return
	}
	s.resident |= bit
	if w.Done() || w.AtBarrier {
		return
	}
	n := s.blocks[w.BlockSlot].kernel.Program.Need[w.PC()]
	s.need[ws] = n
	s.live |= bit
	if s.sbRegs[ws]&n.Regs == 0 && s.sbPreds[ws]&n.Preds == 0 {
		s.sbClear |= bit
	}
	if n.Mem {
		s.memNext |= bit
	}
}

// issueReadyAt returns the earliest cycle at which live warp slot ws's
// scoreboard and structural conditions could all hold, given the SM's
// pending timed releases. For every scoreboard bit the next instruction
// needs, regClearAt / predClearAt hold the exact cycle its in-flight
// writeback lands, so the answer is simply the max of those (zero when
// nothing is pending). The caller floors it at now and at the warp's
// branch-delay window. Between state changes these conditions are
// time-independent, which is what makes the horizon exact (blockedTo is
// the only time-varying input to issue readiness).
//
// ok=false means the time is not knowable from timed state alone and
// the warp contributes no horizon term; its wake rides another: a load
// dependence (Never clearAt) rides the response/retire terms, and a
// full LDST queue frees only inside a Tick the queue's own term (or the
// miss-drain re-tick) already schedules. A slot relaunched while a
// previous resident's writebacks are still in flight (sbHazard) is the
// one case where pending clears are not described by regClearAt — the
// foreign masks may strike the new warp's bits early — so the term
// falls back to the next pipe drain, the earliest any release can land.
func (s *SM) issueReadyAt(ws int) (sim.Cycle, bool) {
	if s.sbHazard[ws] {
		if s.exec.Len() == 0 {
			// Unreachable (the hazard clears when the pipe drains), but
			// never report a horizon term of Never as ok.
			return 0, false
		}
		return s.exec.NextReady(), true
	}
	n := s.need[ws]
	var at sim.Cycle
	for m := s.sbRegs[ws] & n.Regs; m != 0; m &= m - 1 {
		rel := s.regClearAt[ws*64+bits.TrailingZeros64(m)]
		if rel == sim.Never {
			return 0, false
		}
		if rel > at {
			at = rel
		}
	}
	for m := s.sbPreds[ws] & n.Preds; m != 0; m &= m - 1 {
		if rel := s.predClearAt[ws*8+bits.TrailingZeros8(m)]; rel > at {
			at = rel
		}
	}

	// Structural: LDST queue occupancy only changes inside Tick, so a
	// full queue has no timed release visible here.
	if n.Mem && !s.ldstQ.CanPush() {
		return 0, false
	}
	return at, true
}

// pickWarp selects the next warp per the configured policy; exclude is
// a bitmask of warp slots already issued this cycle. Candidates are the
// scoreboard-clear warps, minus those whose next instruction needs an
// LDST-queue slot when the queue is full (an earlier pick this cycle may
// have filled it, so the queue is re-read per pick); the branch-delay
// window is compared per candidate.
func (s *SM) pickWarp(c sim.Cycle, exclude uint64) int {
	cand := s.sbClear &^ exclude
	if !s.ldstQ.CanPush() {
		cand &^= s.memNext
	}
	switch s.cfg.Scheduler {
	case LRR:
		// Slots lastSched+1 .. MaxWarps-1, then 0 .. lastSched.
		below := uint64(1)<<((s.lastSched+1)%s.cfg.MaxWarps) - 1
		for _, m := range [2]uint64{cand &^ below, cand & below} {
			for ; m != 0; m &= m - 1 {
				if ws := bits.TrailingZeros64(m); s.blockedTo[ws] <= c {
					return ws
				}
			}
		}
	case GTO:
		if g := s.greedyWarp; cand&(1<<g) != 0 && s.blockedTo[g] <= c {
			return g
		}
		best, bestSeq := -1, ^uint64(0)
		for m := cand; m != 0; m &= m - 1 {
			ws := bits.TrailingZeros64(m)
			if s.blockedTo[ws] <= c && s.warpSeq[ws] < bestSeq {
				best, bestSeq = ws, s.warpSeq[ws]
			}
		}
		return best
	}
	return -1
}

// issueFrom issues one instruction from warp slot ws. The caller has
// verified readiness via pickWarp.
func (s *SM) issueFrom(c sim.Cycle, ws int) {
	w := s.warps[ws]
	bs := &s.blocks[w.BlockSlot]
	prog := bs.kernel.Program
	pc := w.PC()
	in := prog.At(pc)
	passMask := w.Guard(in, w.ActiveMask())

	s.stats.InstIssued++
	s.issuedThisCycle++
	w.InstRetired++
	s.instSeq++

	switch {
	case in.Op == isa.OpBRA:
		reconv := prog.Reconv[pc]
		w.Branch(pc, in.TargetPC, reconv, prog.Len(), passMask)
		s.blockedTo[ws] = c + s.cfg.BranchLatency
	case in.Op == isa.OpEXIT:
		if passMask == 0 {
			w.Advance(pc + 1)
			break
		}
		w.ExitLanes(passMask, pc+1)
		s.retireWarpIfDone(c, ws)
	case in.Op == isa.OpBAR:
		w.Advance(pc + 1)
		if passMask != 0 {
			w.AtBarrier = true
			bs.barrierArrived++
			s.releaseBarrierIfComplete(w.BlockSlot)
		}
	case in.Op.IsMemory():
		s.issueMemInst(c, ws, in, passMask)
		w.Advance(pc + 1)
	default:
		// Arithmetic / moves / predicates: functional execution now,
		// result latency via the exec pipeline.
		w.Clock = uint32(c)
		w.Exec(in, passMask)
		var regMask uint64
		var predMask uint8
		if in.Op.WritesDst() && in.Dst != isa.RZ {
			regMask = 1 << in.Dst
		}
		if in.Op == isa.OpISETP && in.PDst != isa.PT {
			predMask = 1 << in.PDst
		}
		if regMask != 0 || predMask != 0 {
			s.sbRegs[ws] |= regMask
			s.sbPreds[ws] |= predMask
			s.exec.Enter(c, wbEvent{warpSlot: ws, regMask: regMask, predMask: predMask})
			s.wbInFlight[ws]++
			ready := c + s.exec.Depth()
			if regMask != 0 {
				s.regClearAt[ws*64+int(in.Dst)] = ready
			}
			if predMask != 0 {
				s.predClearAt[ws*8+int(in.PDst)] = ready
			}
		}
		w.Advance(pc + 1)
	}
	s.refreshWarp(ws)
}

// releaseBarrierIfComplete opens the barrier when every live warp of the
// block has arrived.
func (s *SM) releaseBarrierIfComplete(blockSlot int) {
	bs := &s.blocks[blockSlot]
	if !bs.active || bs.barrierArrived == 0 || bs.barrierArrived < bs.liveWarps {
		return
	}
	for _, ws := range bs.warps {
		// The slot list is the launch-time one: a warp that exited early
		// may have handed its slot to another block's warp since.
		if w := s.warps[ws]; w != nil && w.BlockSlot == blockSlot && w.AtBarrier {
			w.AtBarrier = false
			s.refreshWarp(ws)
		}
	}
	bs.barrierArrived = 0
}
