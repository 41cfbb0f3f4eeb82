package sm

import (
	"math/bits"

	"gpulat/internal/cache"
	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/warp"
)

// memInst is one warp memory instruction traveling through the LDST unit.
type memInst struct {
	warpSlot  int
	warpSeq   uint64 // the issuing warp's launch sequence (stale-completion check)
	blockSlot int
	kernelID  int
	op        isa.Opcode
	dst       isa.Reg
	space     mem.Space
	kind      mem.Kind
	seq       uint64
	issuedAt  sim.Cycle
	// issueStamp is the SM's issue-cycle count at issue (SM.issueCycles).
	issueStamp uint64

	// accesses holds per-lane effective addresses (global address space
	// for global/local ops; scratchpad offsets for shared ops).
	accesses []mem.LaneAccess

	// txns is the coalesced transaction list (global/local only).
	txns    mem.CoalesceResult
	nextTxn int
	// pendingReq is the generated-but-not-yet-accepted transaction
	// (retried across cycles under structural stalls).
	pendingReq *mem.Request
	// outstanding counts transactions issued to the memory system but
	// not yet written back; issuedAll marks that every transaction has
	// been generated.
	outstanding int
	issuedAll   bool
}

// getMemInst pops a recycled memInst from the per-SM free list (or
// allocates the first few times), zeroed except for the retained
// accesses capacity.
func (s *SM) getMemInst() *memInst {
	n := len(s.miFree)
	if n == 0 {
		return &memInst{}
	}
	mi := s.miFree[n-1]
	s.miFree = s.miFree[:n-1]
	acc := mi.accesses[:0]
	*mi = memInst{accesses: acc}
	return mi
}

// issueMemInst is called at instruction issue: functional effects happen
// now (stores write memory, loads read it into registers), addresses are
// captured, and the instruction enters the LDST queue for timing.
// Global/local stores and atomics are deferred — logged and overlaid
// rather than applied — until FlushCycle commits them after every SM
// has ticked.
func (s *SM) issueMemInst(c sim.Cycle, ws int, in *isa.Instruction, passMask uint32) {
	w := s.warps[ws]
	bs := &s.blocks[w.BlockSlot]
	k := bs.kernel

	var space mem.Space
	switch in.Op {
	case isa.OpLDG, isa.OpSTG, isa.OpATOM:
		space = mem.SpaceGlobal
	case isa.OpLDL, isa.OpSTL:
		space = mem.SpaceLocal
	case isa.OpLDS, isa.OpSTS:
		space = mem.SpaceShared
	}
	kind := mem.KindLoad
	if in.Op.IsStore() {
		kind = mem.KindStore
	}

	mi := s.getMemInst()
	mi.warpSlot = ws
	mi.warpSeq = s.warpSeq[ws]
	mi.blockSlot = w.BlockSlot
	mi.kernelID = bs.kernelID
	mi.op = in.Op
	mi.dst = in.Dst
	mi.space = space
	mi.kind = kind
	mi.seq = s.instSeq
	mi.issuedAt = c
	mi.issueStamp = s.issueCycles

	// The operand rows, and the destination row when a result is kept.
	// Lanes are visited in ascending order: the order of mi.accesses
	// feeds the coalescer.
	addrs, vals := w.Row(in.SrcA), w.Row(in.SrcB)
	var dst []uint32
	if in.Op.WritesDst() && in.Dst != isa.RZ {
		dst = w.Row(in.Dst)
	}
	for m := passMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		offset := uint64(addrs[l]) + uint64(int64(in.Imm))
		addr := offset
		switch space {
		case mem.SpaceLocal:
			addr = s.localToGlobal(k, w, l, offset)
			fallthrough
		case mem.SpaceGlobal:
			switch {
			case in.Op == isa.OpATOM:
				var old *uint32
				if dst != nil {
					old = &dst[l]
				}
				s.deferAtom(addr, vals[l], old)
			case kind == mem.KindStore:
				s.deferStore(addr, vals[l])
			case dst != nil:
				dst[l] = s.readGlobal(addr)
			}
		case mem.SpaceShared:
			var v uint32
			if len(bs.shared) != 0 {
				word := (offset / 4) % uint64(len(bs.shared))
				if kind == mem.KindStore {
					bs.shared[word] = vals[l]
				}
				v = bs.shared[word]
			}
			if dst != nil {
				dst[l] = v
			}
		}
		mi.accesses = append(mi.accesses, mem.LaneAccess{Lane: l, Addr: addr, Size: 4})
	}

	if kind == mem.KindLoad {
		s.stats.LoadsIssued++
		if in.Dst != isa.RZ {
			// The release time (an L1-hit retire or a network reply) is
			// not knowable here; the warp's horizon term drops out and its
			// wake rides the response/retire terms instead.
			s.regReady[ws*64+int(in.Dst)] = sim.Never
		}
	} else {
		s.stats.StoresIssued++
	}

	// An all-lanes-predicated-off memory instruction still flows through
	// the LDST queue with zero transactions (it releases immediately).
	s.ldstQ.Push(c, mi)
}

// localToGlobal places thread-private local memory in the global address
// space with per-word interleaving across all threads of the grid, so
// that lanes accessing the same local offset touch consecutive words —
// the hardware layout that makes local traffic coalesce.
func (s *SM) localToGlobal(k *Kernel, w *warp.Warp, lane int, offset uint64) uint64 {
	gtid := uint64(w.CTAID)*uint64(w.NTID) + uint64(w.TID(lane))
	word := offset / 4
	total := uint64(k.TotalThreads())
	return k.LocalBase + (word*total+gtid)*4
}

// tickLDST processes the head of the LDST queue: shared-memory accesses
// complete locally; global/local accesses coalesce into transactions and
// access the L1 (or bypass it) at one transaction per cycle.
func (s *SM) tickLDST(c sim.Cycle) {
	mi, ok := s.ldstQ.Peek(c)
	if !ok {
		return
	}

	if mi.space == mem.SpaceShared {
		s.processShared(c, mi)
		s.ldstQ.Pop(c)
		return
	}

	// Lazy coalescing on first service.
	if mi.txns.Segments == nil && !mi.issuedAll {
		if len(mi.accesses) == 0 {
			mi.issuedAll = true
			s.finishMemInst(mi)
			s.ldstQ.Pop(c)
			return
		}
		// The result aliases the per-SM scratch: safe because only the
		// queue head coalesces, and the next head cannot coalesce until
		// this one has issued every transaction and popped.
		mi.txns = s.coalesce.Coalesce(mi.accesses, s.cfg.CoalesceSegment)
	}

	// Issue the next transaction.
	if mi.nextTxn < len(mi.txns.Segments) {
		if !s.issueTransaction(c, mi) {
			return // structural stall; retry next cycle
		}
		mi.nextTxn++
	}
	if mi.nextTxn == len(mi.txns.Segments) {
		mi.issuedAll = true
		s.ldstQ.Pop(c)
		if mi.outstanding == 0 {
			// All transactions were L1 hits already written back, or a
			// pure store that needed no acknowledgment.
			s.finishMemInst(mi)
		}
	}
}

// issueTransaction sends one coalesced transaction into the memory
// system. It returns false on a structural stall (retry next cycle);
// the generated request persists across retries so its creation
// timestamp is honest.
func (s *SM) issueTransaction(c sim.Cycle, mi *memInst) bool {
	useL1 := (mi.space == mem.SpaceGlobal && s.cfg.L1Enabled) ||
		(mi.space == mem.SpaceLocal && s.cfg.L1LocalEnabled)
	if mi.op == isa.OpATOM {
		// Atomics execute at the L2; they never hit the L1.
		useL1 = false
	}

	// Build the request once per transaction. Loads are tracked (carry
	// a stage log); stores are fire-and-forget per the paper's load-
	// latency methodology.
	req := mi.pendingReq
	if req == nil {
		req = s.reqPool.Get(mi.kind == mem.KindLoad)
		req.ID = s.newReqID()
		req.Addr = mi.txns.Segments[mi.nextTxn]
		req.Size = mi.txns.SegmentSize
		req.Kind = mi.kind
		req.Space = mi.space
		req.SM = s.cfg.ID
		req.Warp = mi.warpSlot
		req.Inst = mi.seq
		req.Kernel = mi.kernelID
		if mi.kind == mem.KindLoad {
			req.Log.Mark(mem.PtIssue, mi.issuedAt)
			req.Log.IssueStamp = mi.issueStamp
			req.Log.Mark(mem.PtCreated, c)
		}
		mi.pendingReq = req
	}

	s.ldstBlockedOn = nil
	if !useL1 {
		// No L1 for this space: the request goes straight to the miss
		// queue. PtL1Access marks the coalescer exit (where the L1
		// lookup would have happened).
		if !s.missQ.CanPush() {
			return false
		}
		req.Log.Mark(mem.PtL1Access, c)
		if mi.kind == mem.KindLoad {
			mi.outstanding++
			s.outstanding[req.ID] = txnCtx{mi: mi, fillL1: false}
		}
		s.missQ.Push(c, req)
		mi.pendingReq = nil
		return true
	}

	// L1 path. A miss needs a miss-queue slot; reserve conservatively
	// before accessing so an allocated MSHR is never stranded.
	if !s.missQ.CanPush() {
		return false
	}
	res := s.l1.Access(c, req)
	if res.Status != cache.ReservationFail {
		req.Log.Mark(mem.PtL1Access, c)
		mi.pendingReq = nil
	}
	switch res.Status {
	case cache.Hit:
		s.stats.L1Hits++
		if mi.kind == mem.KindLoad {
			mi.outstanding++
			s.retire.Schedule(c+s.cfg.L1.HitLatency+s.cfg.WritebackLatency, completion{mi: mi, req: req})
		} else {
			// Write-through: the store is forwarded below the hit.
			s.missQ.Push(c, req)
		}
		return true
	case cache.HitReserved:
		s.stats.L1MergedMisses++
		if req.Log != nil {
			req.Log.MergedAtL1 = true
		}
		mi.outstanding++
		s.outstanding[req.ID] = txnCtx{mi: mi, fillL1: false}
		// Completion arrives via the primary's fill.
		return true
	case cache.Miss:
		s.stats.L1Misses++
		if mi.kind == mem.KindLoad {
			mi.outstanding++
			s.outstanding[req.ID] = txnCtx{mi: mi, fillL1: true, blockAddr: s.l1.BlockAddr(req.Addr)}
		}
		s.missQ.Push(c, req)
		return true
	case cache.ReservationFail:
		s.ldstBlockedOn = mi
		return false
	}
	return false
}

// processShared completes a shared-memory access with bank-conflict
// serialization: the latency grows by one cycle per extra pass.
func (s *SM) processShared(c sim.Cycle, mi *memInst) {
	passes := s.sharedPasses(mi.accesses, len(s.blocks[mi.blockSlot].shared))
	if passes > 1 {
		s.stats.SharedConflicts += uint64(passes - 1)
	}
	lat := s.cfg.SharedLatency + sim.Cycle(passes-1)
	if mi.kind == mem.KindLoad {
		mi.outstanding++
		mi.issuedAll = true
		// Local completion: no tracked request, latency only.
		s.retire.Schedule(c+lat, completion{mi: mi})
	} else {
		mi.issuedAll = true
		s.finishMemInst(mi)
	}
}

// sharedPasses computes the number of serialized passes caused by bank
// conflicts: lanes touching distinct words in the same bank serialize;
// lanes reading the same word broadcast. Each access is decomposed into
// the 4-byte bank words it covers ([Addr, Addr+Size)), and word indices
// wrap into the block's shared array of sharedWords words exactly as
// the functional access path does, so lanes that alias the same word
// after the wrap broadcast (sharedWords == 0 — no shared memory
// allocated — disables wrapping). The per-bank word sets live in SM
// scratch slices reset in O(banks touched), so the steady-state path
// allocates nothing.
func (s *SM) sharedPasses(acc []mem.LaneAccess, sharedWords int) int {
	banks := uint64(s.cfg.SharedBanks)
	passes := 1
	for _, a := range acc {
		first := a.Addr / 4
		last := first
		if a.Size > 0 {
			last = (a.Addr + uint64(a.Size) - 1) / 4
		}
		for w := first; w <= last; w++ {
			word := w
			if sharedWords > 0 {
				word %= uint64(sharedWords)
			}
			bank := word % banks
			words := s.bankWords[bank]
			if len(words) == 0 {
				s.touchedBanks = append(s.touchedBanks, int(bank))
			}
			dup := false
			for _, seen := range words {
				if seen == word {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			s.bankWords[bank] = append(words, word)
			if len(words)+1 > passes {
				passes = len(words) + 1
			}
		}
	}
	for _, b := range s.touchedBanks {
		s.bankWords[b] = s.bankWords[b][:0]
	}
	s.touchedBanks = s.touchedBanks[:0]
	return passes
}

// processResponses drains the response queue: replies fill the L1 (when
// the miss allocated there) and complete their transactions.
func (s *SM) processResponses(c sim.Cycle) {
	for {
		r, ok := s.respQ.Pop(c)
		if !ok {
			return
		}
		ctx, ok := s.outstanding[r.ID]
		if !ok {
			// A reply for an untracked or already-completed request is
			// a protocol error.
			panic("sm: response for unknown request")
		}
		delete(s.outstanding, r.ID)
		if ctx.fillL1 && s.l1 != nil {
			merged := s.l1.Fill(c, ctx.blockAddr)
			for _, m := range merged {
				if m == r {
					continue
				}
				mctx, ok := s.outstanding[m.ID]
				if !ok {
					continue
				}
				delete(s.outstanding, m.ID)
				if m.Log != nil {
					m.MergedInto = r
					mem.InheritMarks(m.Log, r.Log, mem.PtICNTInject)
				}
				s.retire.Schedule(c+s.cfg.WritebackLatency, completion{mi: mctx.mi, req: m})
			}
		}
		s.retire.Schedule(c+s.cfg.WritebackLatency, completion{mi: ctx.mi, req: r})
	}
}
