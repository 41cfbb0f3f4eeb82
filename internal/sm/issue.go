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
// live, sbClear and memNext bits, cached need and readyAt — from live
// state. It must run after every change to the slot's occupant, PC,
// barrier flag, delay window or release times: LaunchBlock, the end of
// issueFrom, barrier release, finishMemInst and retireWarpIfDone. What it
// caches holds until the next of those; the one input that changes in
// between, LDST-queue space, is read at pick time instead.
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
	at := s.blockedTo[ws]
	for m := n.Regs; m != 0; m &= m - 1 {
		at = max(at, s.regReady[ws*64+bits.TrailingZeros64(m)])
	}
	for m := n.Preds; m != 0; m &= m - 1 {
		at = max(at, s.predReady[ws*8+bits.TrailingZeros8(m)])
	}
	s.readyAt[ws] = at
	if at != sim.Never {
		s.sbClear |= bit
	}
	if n.Mem {
		s.memNext |= bit
	}
}

// pickWarp selects the next warp per the configured policy; exclude is
// a bitmask of warp slots already issued this cycle. Candidates are the
// warps with no operand waiting on a load, minus those whose next
// instruction needs an LDST-queue slot when the queue is full (an earlier
// pick this cycle may have filled it, so the queue is re-read per pick);
// each candidate's readyAt is compared with c.
func (s *SM) pickWarp(c sim.Cycle, exclude uint64) int {
	cand := s.sbClear &^ exclude
	if !s.ldstQ.CanPush() {
		cand &^= s.memNext
	}
	if cand == 0 {
		return -1
	}
	switch s.cfg.Scheduler {
	case LRR:
		// Slots lastSched+1 .. MaxWarps-1, then 0 .. lastSched.
		below := uint64(1)<<((s.lastSched+1)%s.cfg.MaxWarps) - 1
		for _, m := range [2]uint64{cand &^ below, cand & below} {
			for ; m != 0; m &= m - 1 {
				if ws := bits.TrailingZeros64(m); s.readyAt[ws] <= c {
					return ws
				}
			}
		}
	case GTO:
		if g := s.greedyWarp; cand&(1<<g) != 0 && s.readyAt[g] <= c {
			return g
		}
		best, bestSeq := -1, ^uint64(0)
		for m := cand; m != 0; m &= m - 1 {
			ws := bits.TrailingZeros64(m)
			if s.readyAt[ws] <= c && s.warpSeq[ws] < bestSeq {
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
		// Arithmetic / moves / predicates: functional execution now, the
		// result readable ALULatency cycles later.
		w.Clock = uint32(c)
		w.Exec(in, passMask)
		lands := c + s.cfg.ALULatency
		if in.Op.WritesDst() && in.Dst != isa.RZ {
			s.regReady[ws*64+int(in.Dst)] = lands
			s.landsBy = lands
		}
		if in.Op == isa.OpISETP && in.PDst != isa.PT {
			s.predReady[ws*8+int(in.PDst)] = lands
			s.landsBy = lands
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
