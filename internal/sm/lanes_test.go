package sm

import (
	"math/rand"
	"slices"
	"testing"

	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// TestBarrierReleaseSkipsRelaunchedSlot: block A's warp 1 exits at once,
// freeing warp slot 1 while A's warp 0 is still working toward its BAR.
// Block B lands in that slot. When A's barrier opens it must release A's
// warps only: B's warp 0 reads the word its sibling stores before B's own
// barrier, so passing early reads zero.
func TestBarrierReleaseSkipsRelaunchedSlot(t *testing.T) {
	work := func(b *isa.Builder, n int) {
		for i := 0; i < n; i++ {
			b.IAddI(2, 2, 1) // dependent chain: ALULatency cycles each
		}
	}
	a := isa.NewBuilder("one-warp-leaves-early")
	a.S2R(1, isa.SrWarpID).ISetpI(0, isa.CmpNE, 1, 0).P(0).Exit()
	work(a, 20)
	a.Bar().Exit()

	b := isa.NewBuilder("produce-bar-consume")
	b.S2R(1, isa.SrWarpID).ISetpI(0, isa.CmpEQ, 1, 0).P(0).Bra("bar")
	work(b, 60)
	b.MovI(3, 42).Sts(isa.RZ, 0, 3)
	b.Label("bar").Bar().
		Lds(4, isa.RZ, 0).
		S2R(5, isa.SrTID).ShlI(5, 5, 2).Param(6, 0).IAdd(6, 6, 5).
		Stg(6, 0, 4).Exit()

	ka := &Kernel{Program: a.Build(), BlockDim: 64, GridDim: 1}
	kb := &Kernel{Program: b.Build(), Params: []uint32{0x2000}, BlockDim: 64, GridDim: 1, SharedBytes: 4}
	m := mem.NewMemory()
	var id uint64
	s := New(testSMConfig(), m, func() uint64 { id++; return id }, nil)
	lb := &loopback{delay: 20}
	s.LaunchBlock(ka, 0, 0)
	launched := false
	for c := sim.Cycle(0); ; c++ {
		if c > 5000 {
			t.Fatal("SM did not drain")
		}
		if !launched && s.warps[1] == nil {
			s.LaunchBlock(kb, 0, 1)
			if w := s.warps[1]; w == nil || w.BlockSlot != 1 || s.warps[0] == nil {
				t.Fatal("block B did not take warp slot 1 beside block A's warp 0")
			}
			launched = true
		}
		lb.tick(c, s)
		s.Tick(c)
		s.FlushCycle()
		if launched && !s.Busy() && len(lb.pending) == 0 {
			break
		}
	}
	for tid := uint64(0); tid < 64; tid++ {
		if got := m.Load32(0x2000 + tid*4); got != 42 {
			t.Fatalf("thread %d read %d after block B's barrier, want the 42 stored before it", tid, got)
		}
	}
}

// TestMemInstMatchesPerLaneReference issues every memory opcode from
// warp-wide operand rows and checks, against a reference that walks the
// lanes one by one with its own address arithmetic, the accesses handed
// to the coalescer (lane, address, order), the registers written, and
// memory after the cycle's commit — with Dst aliasing the address
// register, Dst = RZ, negative offsets and partial masks.
func TestMemInstMatchesPerLaneReference(t *testing.T) {
	const (
		rAddr, rVal, rDst = isa.Reg(1), isa.Reg(2), isa.Reg(61)
		blockDim, gridDim = 64, 3
		ctaid, localBase  = 2, 0x100000
		sharedWords       = 24
	)
	b := isa.NewBuilder("every-memory-op")
	for _, dst := range []isa.Reg{rDst, rAddr, isa.RZ} {
		b.Ldg(dst, rAddr, 8).Ldl(dst, rAddr, -4).Lds(dst, rAddr, 12).Atom(dst, rAddr, -8, rVal)
	}
	b.Stg(rAddr, 4, rVal).Stl(rAddr, 0, rVal).Sts(rAddr, -12, rVal).Exit()
	prog := b.Build()
	k := &Kernel{Program: prog, BlockDim: blockDim, GridDim: gridDim,
		SharedBytes: sharedWords * 4, LocalBase: localBase}

	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		m := mem.NewMemory()
		var id uint64
		s := New(testSMConfig(), m, func() uint64 { id++; return id }, nil)
		s.LaunchBlock(k, ctaid, 0)
		const ws = 1 // the block's second warp: TIDs 32..63
		w, bs := s.warps[ws], &s.blocks[0]
		for i := range bs.shared {
			bs.shared[i] = rng.Uint32()
		}
		for pc := 0; pc < prog.Len()-1; pc++ {
			in := prog.At(pc)
			mask := rng.Uint32()
			if trial%4 == 0 {
				mask = ^uint32(0)
			}
			// refAddr is the reference's own address arithmetic: lane l's
			// effective offset, and where that is in the global space.
			refAddr := func(base uint32, l int) (off, addr uint64) {
				off = uint64(int64(base) + int64(in.Imm))
				if in.Op == isa.OpLDL || in.Op == isa.OpSTL {
					gtid := uint64(ctaid*blockDim + 32 + l)
					return off, localBase + ((off/4)*blockDim*gridDim+gtid)*4
				}
				return off, off
			}
			// Fresh operands, clustered so lanes collide on words, over
			// fresh memory contents.
			for l := 0; l < 32; l++ {
				w.Row(rAddr)[l] = 0x4000 + uint32(rng.Intn(64))*4
				w.Row(rVal)[l] = rng.Uint32()
				w.Row(rDst)[l] = rng.Uint32()
				_, addr := refAddr(w.Row(rAddr)[l], l)
				m.Store32(addr, rng.Uint32())
			}

			// The per-lane reference, on copies; RZ's row must stay zero.
			regs := map[isa.Reg][]uint32{rAddr: slices.Clone(w.Row(rAddr)),
				rVal: slices.Clone(w.Row(rVal)), rDst: slices.Clone(w.Row(rDst)), isa.RZ: make([]uint32, 32)}
			shared := slices.Clone(bs.shared)
			global := map[uint64]uint32{} // words the instruction leaves changed at commit
			read := func(addr uint64) uint32 {
				if v, ok := global[addr]; ok {
					return v
				}
				return m.Load32(addr)
			}
			var want []mem.LaneAccess
			atomOld := map[int]uint32{}
			for l := 0; l < 32; l++ {
				if mask>>l&1 == 0 {
					continue
				}
				off, addr := refAddr(regs[rAddr][l], l)
				var loaded uint32
				switch in.Op {
				case isa.OpLDG, isa.OpLDL:
					loaded = read(addr)
				case isa.OpLDS:
					loaded = shared[(off/4)%sharedWords]
				case isa.OpATOM:
					atomOld[l] = read(addr) // lands at commit, not at issue
					global[addr] = atomOld[l] + regs[rVal][l]
				case isa.OpSTG, isa.OpSTL:
					global[addr] = regs[rVal][l]
				case isa.OpSTS:
					shared[(off/4)%sharedWords] = regs[rVal][l]
				}
				if in.Op.WritesDst() && in.Op != isa.OpATOM && in.Dst != isa.RZ {
					regs[in.Dst][l] = loaded
				}
				want = append(want, mem.LaneAccess{Lane: l, Addr: addr, Size: 4})
			}

			s.issueMemInst(sim.Cycle(pc), ws, in, mask)
			mi, _ := s.ldstQ.Head()
			if !slices.Equal(mi.accesses, want) {
				t.Fatalf("trial %d %q mask %#x: accesses\n got %v\nwant %v", trial, in, mask, mi.accesses, want)
			}
			check := func(when string) {
				for r, row := range regs {
					if !slices.Equal(w.Row(r), row) {
						t.Fatalf("trial %d %q mask %#x, %s: %v\n got %v\nwant %v", trial, in, mask, when, r, w.Row(r), row)
					}
				}
			}
			check("at issue")
			s.FlushCycle()
			if in.Dst != isa.RZ {
				for l, old := range atomOld {
					regs[in.Dst][l] = old
				}
			}
			check("after commit")
			if !slices.Equal(bs.shared, shared) {
				t.Fatalf("trial %d %q mask %#x: shared memory\n got %v\nwant %v", trial, in, mask, bs.shared, shared)
			}
			for addr, v := range global {
				if got := m.Load32(addr); got != v {
					t.Fatalf("trial %d %q mask %#x: [%#x] = %#x after commit, want %#x", trial, in, mask, addr, got, v)
				}
			}
			s.ldstQ.Pop(1 << 40) // keep the queue from filling; timing is not under test
		}
	}
}

// TestAtomicOldValueOutlivesItsWarp: a warp may EXIT while its atomic is
// still in the cycle's deferred log. The commit then writes the old
// value through a pointer into a register file no warp slot holds any
// more — and must not reach whatever took the slot since.
func TestAtomicOldValueOutlivesItsWarp(t *testing.T) {
	b := isa.NewBuilder("atom-then-exit")
	b.Param(3, 0).MovI(2, 5).Atom(1, 3, 0, 2).Exit()
	k := &Kernel{Program: b.Build(), Params: []uint32{0x4000}, BlockDim: 32, GridDim: 1}
	m := mem.NewMemory()
	m.Store32(0x4000, 100)
	var id uint64
	s := New(testSMConfig(), m, func() uint64 { id++; return id }, nil)
	s.LaunchBlock(k, 0, 0)
	old := s.warps[0]
	// No FlushCycle between the ticks: the atomic (pc 2) and the EXIT
	// behind it issue on consecutive cycles into one log.
	c := sim.Cycle(0)
	for ; s.warps[0] != nil; c++ {
		if c > 100 {
			t.Fatal("warp never exited")
		}
		s.Tick(c)
	}
	if len(s.memLog) != 32 {
		t.Fatalf("%d deferred ops at EXIT, want the warp's 32 atomic lanes", len(s.memLog))
	}
	s.LaunchBlock(k, 0, 1)
	s.FlushCycle()
	for l := 0; l < 32; l++ {
		if got, want := old.Row(1)[l], uint32(100+5*l); got != want {
			t.Fatalf("lane %d old value = %d, want %d", l, got, want)
		}
		if got := s.warps[0].Row(1)[l]; got != 0 {
			t.Fatalf("the slot's new warp had R1 lane %d written (%d)", l, got)
		}
	}
	if got := m.Load32(0x4000); got != 100+5*32 {
		t.Fatalf("[0x4000] = %d, want %d", got, 100+5*32)
	}
}
