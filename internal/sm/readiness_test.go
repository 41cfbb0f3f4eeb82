package sm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// The issue stage keeps warp readiness as maintained state (refreshWarp,
// pickWarp). This file holds the oracle it replaced — the linear scan
// that re-decodes every warp slot's next instruction on every pick and
// reads its operands' release times from the scoreboard — and the
// property test that the two agree at every pick of every cycle.

// refIssuable is the former issuable check: residency, branch delay,
// release times and structural conditions decoded from scratch at c.
func (s *SM) refIssuable(ws int, c sim.Cycle) bool {
	w := s.warps[ws]
	if w == nil || w.Done() || w.AtBarrier || s.blockedTo[ws] > c {
		return false
	}
	in := s.blocks[w.BlockSlot].kernel.Program.At(w.PC())
	if s.refRelease(ws, in) > c {
		return false
	}
	return !in.Op.IsMemory() || s.ldstQ.CanPush()
}

// refRelease is the latest release time among the registers and
// predicates instruction in needs, read straight from the scoreboard
// (Never while any of them waits on a load).
func (s *SM) refRelease(ws int, in *isa.Instruction) sim.Cycle {
	regs, preds := refNeed(in)
	var at sim.Cycle
	for r := 0; r < 64; r++ {
		if regs&(1<<r) != 0 && s.regReady[ws*64+r] > at {
			at = s.regReady[ws*64+r]
		}
	}
	for p := 0; p < 8; p++ {
		if preds&(1<<p) != 0 && s.predReady[ws*8+p] > at {
			at = s.predReady[ws*8+p]
		}
	}
	return at
}

// refNeed decodes the registers and predicates whose pending results an
// instruction must wait for.
func refNeed(in *isa.Instruction) (regs uint64, preds uint8) {
	var buf [4]isa.Reg
	for _, r := range in.SrcRegs(buf[:0]) {
		regs |= 1 << r
	}
	if in.Op.WritesDst() && in.Dst != isa.RZ {
		regs |= 1 << in.Dst
	}
	if in.Pred != isa.PT {
		preds |= 1 << in.Pred
	}
	if (in.Op == isa.OpISETP || in.Op == isa.OpSELP) && in.PDst != isa.PT {
		preds |= 1 << in.PDst
	}
	return regs, preds
}

// refPickWarp is the former pickWarp: a scan over every warp slot.
func (s *SM) refPickWarp(c sim.Cycle, exclude uint64) int {
	can := func(ws int) bool {
		return exclude&(1<<ws) == 0 && s.refIssuable(ws, c)
	}
	n := s.cfg.MaxWarps
	switch s.cfg.Scheduler {
	case LRR:
		for k := 1; k <= n; k++ {
			if ws := (s.lastSched + k) % n; can(ws) {
				return ws
			}
		}
	case GTO:
		if g := s.greedyWarp; g >= 0 && g < n && can(g) {
			return g
		}
		best, bestSeq := -1, ^uint64(0)
		for ws := 0; ws < n; ws++ {
			if can(ws) && s.warpSeq[ws] < bestSeq {
				best, bestSeq = ws, s.warpSeq[ws]
			}
		}
		return best
	}
	return -1
}

// checkReadiness compares the maintained readiness state of every slot
// with a from-scratch recomputation.
func (s *SM) checkReadiness() error {
	blocks := 0
	for i := range s.blocks {
		if s.blocks[i].active {
			blocks++
		}
	}
	if blocks != s.activeBlocks {
		return fmt.Errorf("activeBlocks = %d, %d block slots are active", s.activeBlocks, blocks)
	}
	for ws, w := range s.warps {
		bit := uint64(1) << ws
		live := w != nil && !w.Done() && !w.AtBarrier
		var need isa.IssueNeed
		var readyAt sim.Cycle
		if live {
			in := s.blocks[w.BlockSlot].kernel.Program.At(w.PC())
			need.Regs, need.Preds = refNeed(in)
			need.Mem = in.Op.IsMemory()
			readyAt = max(s.blockedTo[ws], s.refRelease(ws, in))
		}
		clear := live && readyAt != sim.Never
		switch {
		case (s.resident&bit != 0) != (w != nil):
			return fmt.Errorf("slot %d: resident bit %v, occupied %v", ws, s.resident&bit != 0, w != nil)
		case (s.live&bit != 0) != live:
			return fmt.Errorf("slot %d: live bit %v, want %v", ws, s.live&bit != 0, live)
		case live && s.need[ws] != need:
			return fmt.Errorf("slot %d: need %+v, want %+v", ws, s.need[ws], need)
		case live && s.readyAt[ws] != readyAt:
			return fmt.Errorf("slot %d: readyAt %d, want %d", ws, s.readyAt[ws], readyAt)
		case (s.sbClear&bit != 0) != clear:
			return fmt.Errorf("slot %d: sbClear bit %v, want %v", ws, s.sbClear&bit != 0, clear)
		case (s.memNext&bit != 0) != (live && need.Mem):
			return fmt.Errorf("slot %d: memNext bit %v, want %v", ws, s.memNext&bit != 0, live && need.Mem)
		}
	}
	return nil
}

// tickChecked is Tick with the issue loop spelled out so that the state
// is verified before every pick and every pick is compared with the
// reference scan (the caller verifies the state the tick leaves behind
// at the top of the next cycle). It shares Tick's front half, tickFront.
// memNextHits counts picks at which the full-LDST-queue exclusion
// removed a warp that could otherwise have issued.
func (s *SM) tickChecked(c sim.Cycle, memNextHits *int) error {
	s.tickFront(c)
	if s.activeBlocks == 0 {
		return nil
	}
	var issued uint64
	for slot := 0; slot < s.cfg.IssueWidth; slot++ {
		if err := s.checkReadiness(); err != nil {
			return fmt.Errorf("cycle %d, before pick %d: %w", c, slot, err)
		}
		if !s.ldstQ.CanPush() {
			for m := s.sbClear & s.memNext &^ issued; m != 0; m &= m - 1 {
				if s.readyAt[bits.TrailingZeros64(m)] <= c {
					*memNextHits++
					break
				}
			}
		}
		ws, want := s.pickWarp(c, issued), s.refPickWarp(c, issued)
		if ws != want {
			return fmt.Errorf("cycle %d, pick %d: pickWarp = %d, reference scan = %d", c, slot, ws, want)
		}
		if ws < 0 {
			s.stats.IssueStallEmpty += uint64(s.cfg.IssueWidth - slot)
			break
		}
		s.issueFrom(c, ws)
		issued |= 1 << ws
		s.lastSched, s.greedyWarp = ws, ws
	}
	return nil
}

// RunReadinessCheck runs kernel k to completion on two stand-alone SMs
// fed identical inputs: one through the product Tick, one through
// tickChecked. The lockstep comparison proves tickChecked is Tick, so
// the picks it verified are the picks the product makes. It returns how
// often the LDST-queue exclusion fired. (Exported for the catalog sweep
// in package sm_test, which may import internal/kernels; this package
// may not.)
func RunReadinessCheck(t *testing.T, cfg Config, k *Kernel, setup func(*mem.Memory)) int {
	t.Helper()
	type side struct {
		s    *SM
		lb   loopback
		next int
	}
	var sides [2]*side
	for i := range sides {
		m := mem.NewMemory()
		if setup != nil {
			setup(m)
		}
		var id uint64
		sides[i] = &side{s: New(cfg, m, func() uint64 { id++; return id }, nil), lb: loopback{delay: 200}}
	}
	ref, chk := sides[0], sides[1]
	memNextHits := 0
	for c := sim.Cycle(0); c < 2_000_000; c++ {
		for _, sd := range sides {
			if sd.next < k.GridDim && sd.s.CanLaunch(k) {
				sd.s.LaunchBlock(k, sd.next, 0)
				sd.next++
			}
			sd.lb.tick(c, sd.s)
		}
		if err := chk.s.checkReadiness(); err != nil {
			t.Fatalf("cycle %d, before Tick: %v", c, err)
		}
		ref.s.Tick(c)
		if err := chk.s.tickChecked(c, &memNextHits); err != nil {
			t.Fatal(err)
		}
		ref.s.FlushCycle()
		chk.s.FlushCycle()
		a, b := ref.s, chk.s
		if a.stats != b.stats || a.lastSched != b.lastSched || a.greedyWarp != b.greedyWarp ||
			a.live != b.live || a.sbClear != b.sbClear || a.issuedThisCycle != b.issuedThisCycle ||
			a.issueCycles != b.issueCycles {
			t.Fatalf("cycle %d: tickChecked diverged from Tick:\nTick:        %+v issueCycles=%d\n%s\ntickChecked: %+v issueCycles=%d\n%s",
				c, a.stats, a.issueCycles, a.DebugState(), b.stats, b.issueCycles, b.DebugState())
		}
		if ref.next == k.GridDim && !a.Busy() && len(ref.lb.pending) == 0 {
			if sa, sb := a.DebugState(), b.DebugState(); sa != sb {
				t.Fatalf("final state diverged:\n%s\n%s", sa, sb)
			}
			if err := b.checkReadiness(); err != nil {
				t.Fatalf("drained: %v", err)
			}
			return memNextHits
		}
	}
	t.Fatal("kernel did not finish")
	return 0
}

// ReadinessConfigs are the issue-stage shapes the property test covers:
// both schedulers at issue width 1 and 2, GF100's warp and block
// capacity, and an LDST queue shallow enough that it fills.
func ReadinessConfigs() map[string]Config {
	out := map[string]Config{}
	for _, pol := range []SchedPolicy{LRR, GTO} {
		for _, width := range []int{1, 2} {
			cfg := testSMConfig()
			cfg.MaxWarps, cfg.MaxBlocks = 48, 8
			cfg.Scheduler, cfg.IssueWidth = pol, width
			cfg.LDSTQueueDepth = 2
			cfg.L1.MSHREntries = 32
			out[fmt.Sprintf("%v/w%d", pol, width)] = cfg
		}
	}
	return out
}

// randomProgram assembles a seeded instruction mix: ALU chains, loads,
// stores and atomics (coalesced, divergent and uniform addresses),
// guarded instructions, a divergent branch and a barrier.
func randomProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("random")
	// R1 = base + tid*4 (coalesced), R2 = base + tid*128 (one line per
	// lane), R3 = base (uniform); the mix below never writes R1..R3.
	b.Param(3, 0).S2R(10, isa.SrTID).S2R(11, isa.SrLaneID).
		ShlI(1, 10, 2).IAdd(1, 1, 3).
		ShlI(2, 10, 7).IAdd(2, 2, 3).
		ISetpI(0, isa.CmpLT, 11, int32(rng.Intn(33))).
		ISetpI(1, isa.CmpGE, 10, int32(rng.Intn(96)))
	data := func() isa.Reg { return isa.Reg(4 + rng.Intn(5)) }
	addr := func() isa.Reg { return isa.Reg(1 + rng.Intn(3)) }
	mix := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				b.P(isa.PredReg(rng.Intn(2)))
			case 1:
				b.PNot(isa.PredReg(rng.Intn(2)))
			}
			switch rng.Intn(10) {
			case 0, 1, 2:
				b.IAdd(data(), data(), data())
			case 3:
				b.IMad(data(), data(), data(), data())
			case 4:
				b.ISetp(isa.PredReg(rng.Intn(2)), isa.CmpLT, data(), data())
			case 5:
				b.Selp(data(), data(), data(), isa.PredReg(rng.Intn(2)))
			case 6, 7:
				b.Ldg(data(), addr(), int32(4*rng.Intn(8)))
			case 8:
				b.Stg(addr(), int32(4*rng.Intn(8)), data())
			case 9:
				b.Atom(data(), addr(), 0, data())
			}
		}
	}
	mix(6 + rng.Intn(10))
	b.ISetpI(2, isa.CmpLT, 11, int32(1+rng.Intn(31))).
		P(2).Bra("else")
	mix(2 + rng.Intn(6))
	b.Bra("join").Label("else")
	mix(2 + rng.Intn(6))
	b.Label("join").Bar()
	mix(4 + rng.Intn(8))
	return b.Exit().Build()
}

func TestReadinessMatchesReferenceScanRandomPrograms(t *testing.T) {
	for name, cfg := range ReadinessConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			memNextHits := 0
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := &Kernel{
					Program:  randomProgram(rng),
					Params:   []uint32{0x10000},
					BlockDim: 32 * (1 + rng.Intn(6)),
					GridDim:  10,
				}
				memNextHits += RunReadinessCheck(t, cfg, k, nil)
			}
			if memNextHits == 0 {
				t.Fatal("the full-LDST-queue exclusion never fired: the memNext path is untested")
			}
		})
	}
}

// TestStaleCompletionKeepsNewOccupantsScoreboard: a warp may EXIT with an
// atomic still in flight. When its slot is relaunched, the old
// instruction's completion must not release the register the new
// occupant's own load has pending.
func TestStaleCompletionKeepsNewOccupantsScoreboard(t *testing.T) {
	a := isa.NewBuilder("exit-with-atom-in-flight")
	a.Param(3, 0).MovI(2, 1).Atom(1, 3, 0, 2).Exit()
	b := isa.NewBuilder("load-then-use")
	b.Param(3, 0).Ldg(1, 3, 256).IAdd(2, 1, 1).Exit()
	const usePC = 2 // the IADD reading R1
	ka := &Kernel{Program: a.Build(), Params: []uint32{0x4000}, BlockDim: 32, GridDim: 1}
	kb := &Kernel{Program: b.Build(), Params: []uint32{0x4000}, BlockDim: 32, GridDim: 1}

	var id uint64
	s := New(testSMConfig(), mem.NewMemory(), func() uint64 { id++; return id }, nil)
	lb := &loopback{delay: 200}
	const relaunchAt = 100
	loadBack, useIssued := sim.Never, sim.Never
	s.LaunchBlock(ka, 0, 0)
	for c := sim.Cycle(0); c < 1000 && useIssued == sim.Never; c++ {
		if c == relaunchAt {
			if !s.Busy() || s.activeBlocks != 0 {
				t.Fatalf("cycle %d: want block A retired with its atomic still in flight", c)
			}
			s.LaunchBlock(kb, 0, 1)
			if s.warps[0] == nil {
				t.Fatal("block B did not reuse warp slot 0")
			}
		}
		for _, p := range lb.pending {
			if p.req.Kernel == 1 && p.at <= c {
				loadBack = c // lb.tick delivers B's load this cycle
			}
		}
		lb.tick(c, s)
		s.Tick(c)
		s.FlushCycle()
		if w := s.warps[0]; c >= relaunchAt && (w == nil || w.PC() > usePC) {
			useIssued = c
		}
	}
	if useIssued == sim.Never {
		t.Fatal("B's dependent IADD never issued")
	}
	if loadBack == sim.Never || useIssued < loadBack {
		t.Fatalf("B's dependent IADD issued at cycle %d, before B's own load returned (cycle %d): A's stale completion released B's register",
			useIssued, loadBack)
	}
}

// TestForeignWritebackKeepsNewOccupantsScoreboard is the arithmetic twin
// of the test above: a warp may EXIT with an IADD result still in flight.
// When its slot is relaunched, the new occupant's dependent IADD must wait
// for its own write of the same register, not the old occupant's.
func TestForeignWritebackKeepsNewOccupantsScoreboard(t *testing.T) {
	a := isa.NewBuilder("exit-with-iadd-in-flight")
	a.IAddI(5, 5, 1).Exit()
	b := isa.NewBuilder("iadd-then-use")
	b.IAddI(5, 5, 1).IAddI(6, 5, 1).Exit()
	ka := &Kernel{Program: a.Build(), BlockDim: 32, GridDim: 1}
	kb := &Kernel{Program: b.Build(), BlockDim: 32, GridDim: 1}

	cfg := testSMConfig()
	cfg.ALULatency = 40
	var id uint64
	s := New(cfg, mem.NewMemory(), func() uint64 { id++; return id }, nil)
	const relaunchAt = 5
	writeIssued, useIssued := sim.Never, sim.Never
	s.LaunchBlock(ka, 0, 0)
	for c := sim.Cycle(0); c < 1000 && useIssued == sim.Never; c++ {
		if c == relaunchAt {
			if !s.Busy() || s.activeBlocks != 0 {
				t.Fatalf("cycle %d: want block A retired with its IADD still in flight", c)
			}
			s.LaunchBlock(kb, 0, 1)
			if s.warps[0] == nil {
				t.Fatal("block B did not reuse warp slot 0")
			}
		}
		s.Tick(c)
		s.FlushCycle()
		if c < relaunchAt {
			continue
		}
		switch w := s.warps[0]; {
		case w == nil || w.PC() > 1:
			useIssued = c
		case w.PC() == 1 && writeIssued == sim.Never:
			writeIssued = c
		}
	}
	if writeIssued == sim.Never || useIssued == sim.Never {
		t.Fatalf("block B's IADDs did not issue (write %d, use %d)", writeIssued, useIssued)
	}
	if lands := writeIssued + cfg.ALULatency; useIssued < lands {
		t.Fatalf("dependent IADD issued at %d, before B's own R5 write lands at %d", useIssued, lands)
	}
}
