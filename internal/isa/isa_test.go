package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuilderResolvesLabels(t *testing.T) {
	p := NewBuilder("t").
		MovI(0, 5).
		Label("loop").
		IAddI(0, 0, -1).
		ISetpI(0, CmpNE, 0, 0).
		P(0).Bra("loop").
		Exit().
		Build()
	if p.Insts[3].TargetPC != 1 {
		t.Fatalf("branch target = %d, want 1", p.Insts[3].TargetPC)
	}
	if p.Insts[3].Pred != 0 || p.Insts[3].PredNeg {
		t.Fatal("guard not applied")
	}
	if p.Insts[0].Pred != PT {
		t.Fatal("default guard should be PT")
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t").Bra("nowhere").Exit().Build()
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t").Label("a").Label("a")
}

// warpOf returns a Width-lane warp sized for a hand-built instruction
// list, predecoded the way Build does it.
func warpOf(width int, insts ...Instruction) *Lanes {
	p := &Program{Name: "hand-built", Insts: insts}
	p.predecode()
	s := NewLanes(p, width)
	return &s
}

// exec1 runs the instructions, guards PT, on a one-lane warp holding the
// registers of set; R0..R3 always have rows.
func exec1(set map[Reg]uint32, insts ...Instruction) *Lanes {
	all := append([]Instruction{{Op: OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}}, insts...)
	for i := range all {
		all[i].Pred = PT
	}
	s := warpOf(1, all...)
	for r, v := range set {
		s.Row(r)[0] = v
	}
	for i := range insts {
		s.Exec(&all[i+1], 1)
	}
	return s
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		in   Instruction
		want uint32
	}{
		{Instruction{Op: OpIADD, Dst: 0, SrcA: 1, SrcB: 2}, 10},
		{Instruction{Op: OpISUB, Dst: 0, SrcA: 1, SrcB: 2}, 4},
		{Instruction{Op: OpIMUL, Dst: 0, SrcA: 1, SrcB: 2}, 21},
		{Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: -2, UseImm: true}, 5},
		{Instruction{Op: OpAND, Dst: 0, SrcA: 1, SrcB: 2}, 3},
		{Instruction{Op: OpOR, Dst: 0, SrcA: 1, SrcB: 2}, 7},
		{Instruction{Op: OpXOR, Dst: 0, SrcA: 1, SrcB: 2}, 4},
		{Instruction{Op: OpSHL, Dst: 0, SrcA: 1, Imm: 2, UseImm: true}, 28},
		{Instruction{Op: OpSHR, Dst: 0, SrcA: 1, Imm: 1, UseImm: true}, 3},
		{Instruction{Op: OpIMIN, Dst: 0, SrcA: 1, SrcB: 2}, 3},
		{Instruction{Op: OpIMAX, Dst: 0, SrcA: 1, SrcB: 2}, 7},
	}
	for i, c := range cases {
		s := exec1(map[Reg]uint32{1: 7, 2: 3}, c.in)
		if got := s.Row(0)[0]; got != c.want {
			t.Errorf("case %d (%v): got %d, want %d", i, c.in.Op, got, c.want)
		}
	}
}

func TestEvalIMad(t *testing.T) {
	s := exec1(map[Reg]uint32{1: 5, 2: 6, 3: 7}, Instruction{Op: OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3})
	if got := s.Row(0)[0]; got != 37 {
		t.Fatalf("IMAD = %d, want 37", got)
	}
}

func TestEvalFloat(t *testing.T) {
	set := map[Reg]uint32{1: math.Float32bits(1.5), 2: math.Float32bits(2.25)}
	s := exec1(set, Instruction{Op: OpFADD, Dst: 0, SrcA: 1, SrcB: 2})
	if got := math.Float32frombits(s.Row(0)[0]); got != 3.75 {
		t.Fatalf("FADD = %v", got)
	}
	s = exec1(set, Instruction{Op: OpFMUL, Dst: 0, SrcA: 1, SrcB: 2})
	if got := math.Float32frombits(s.Row(0)[0]); got != 3.375 {
		t.Fatalf("FMUL = %v", got)
	}
}

func TestEvalRZSemantics(t *testing.T) {
	s := exec1(map[Reg]uint32{1: 42},
		Instruction{Op: OpIADD, Dst: RZ, SrcA: 1, SrcB: RZ},
		Instruction{Op: OpIADD, Dst: 0, SrcA: 1, SrcB: RZ})
	if s.Row(RZ)[0] != 0 {
		t.Fatal("RZ must read zero after write")
	}
	if s.Row(0)[0] != 42 {
		t.Fatal("RZ source must read zero")
	}
}

func TestEvalPredicates(t *testing.T) {
	s := exec1(map[Reg]uint32{1: 5},
		Instruction{Op: OpISETP, PDst: 2, Cmp: CmpSLT, SrcA: 1, Imm: 10, UseImm: true})
	if s.Preds[2] != 1 {
		t.Fatal("5 < 10 should set predicate")
	}
	guard := Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: 1, UseImm: true, Pred: 2, PredNeg: true}
	if s.Guard(&guard, 1) != 0 {
		t.Fatal("@!P2 should fail when P2 true")
	}
	// PT semantics.
	s.Exec(&Instruction{Op: OpISETP, PDst: PT, Cmp: CmpNE, SrcA: 1, SrcB: 1, Pred: PT}, 1)
	if s.Guard(&Instruction{Pred: PT}, 1) != 1 {
		t.Fatal("PT must remain true")
	}
}

func TestEvalSignedUnsignedCompare(t *testing.T) {
	neg := uint32(0xFFFFFFFF) // -1 signed, max unsigned
	if CmpLT.Eval(neg, 1) {
		t.Fatal("unsigned: 0xFFFFFFFF < 1 must be false")
	}
	if !CmpSLT.Eval(neg, 1) {
		t.Fatal("signed: -1 < 1 must be true")
	}
	if compare(CmpLT, []uint32{neg}, []uint32{1}) != 0 || compare(CmpSLT, []uint32{neg}, []uint32{1}) != 1 {
		t.Fatal("warp-wide compare disagrees on 0xFFFFFFFF vs 1")
	}
}

func TestEvalSpecialRegisters(t *testing.T) {
	s := warpOf(4, Instruction{Op: OpS2R, Dst: 0})
	s.TIDBase, s.NTID, s.CTAID, s.NCTAID = 32, 128, 2, 10
	s.WarpID, s.SMID, s.Clock, s.Params = 1, 7, 999, []uint32{11, 22}
	cases := []struct {
		sr   Special
		imm  int32
		want uint32 // in lane 3
	}{
		{SrTID, 0, 35}, {SrNTID, 0, 128}, {SrCTAID, 0, 2}, {SrNCTAID, 0, 10},
		{SrLaneID, 0, 3}, {SrWarpID, 0, 1}, {SrSMID, 0, 7}, {SrClock, 0, 999},
		{SrParam, 0, 11}, {SrParam, 1, 22}, {SrParam, 5, 0}, {SrParam, -1, 0},
	}
	for _, c := range cases {
		in := Instruction{Op: OpS2R, Dst: 0, Special: c.sr, Imm: c.imm, Pred: PT}
		s.Exec(&in, 0xF)
		if got := s.Row(0)[3]; got != c.want {
			t.Errorf("S2R %v[%d] = %d, want %d", c.sr, c.imm, got, c.want)
		}
	}
}

// TestProgramRegisterRows pins the register predecode: a warp's file has
// one row per register the program names, in index order, however far
// apart the indices are.
func TestProgramRegisterRows(t *testing.T) {
	p := NewBuilder("rows").
		S2R(61, SrTID).
		IAddI(5, 61, 1).
		Stg(0, 0, 5).
		Mov(RZ, 9). // a read names R9; a write to RZ names nothing
		Exit().
		Build()
	want := [NumRegs]uint8{0: 1, 5: 2, 9: 3, 61: 4}
	if p.NumRegs != 4 || p.RegRow != want {
		t.Fatalf("NumRegs = %d, RegRow = %v; want 4, %v", p.NumRegs, p.RegRow, want)
	}
	s := NewLanes(p, 7)
	if got, want := len(s.regs), (4+2)*7; got != want {
		t.Fatalf("register file holds %d words, want %d (named + zero row + immediate row)", got, want)
	}
	s.Row(61)[6], s.Row(0)[0] = 1, 2
	if s.regs[4*7+6] != 1 || s.regs[1*7] != 2 {
		t.Fatal("Row does not index the file through RegRow")
	}
}

func TestSrcRegs(t *testing.T) {
	in := Instruction{Op: OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}
	regs := in.SrcRegs(nil)
	if len(regs) != 3 {
		t.Fatalf("IMAD srcs = %v", regs)
	}
	imm := Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: 4, UseImm: true}
	if regs := imm.SrcRegs(nil); len(regs) != 1 {
		t.Fatalf("imm add srcs = %v", regs)
	}
	st := Instruction{Op: OpSTG, SrcA: 1, SrcB: 2}
	if regs := st.SrcRegs(nil); len(regs) != 2 {
		t.Fatalf("store srcs = %v", regs)
	}
	rz := Instruction{Op: OpIADD, Dst: 0, SrcA: RZ, SrcB: RZ}
	if regs := rz.SrcRegs(nil); len(regs) != 0 {
		t.Fatalf("RZ sources reported: %v", regs)
	}
}

// --- reconvergence analysis ---

func TestReconvergenceIfElse(t *testing.T) {
	// if (P0) {A} else {B}; C
	p := NewBuilder("ifelse").
		ISetpI(0, CmpEQ, 1, 0). // 0
		PNot(0).Bra("else").    // 1
		IAddI(2, 2, 1).         // 2: then
		Bra("join").            // 3
		Label("else").
		IAddI(2, 2, 2). // 4: else
		Label("join").
		IAddI(3, 3, 1). // 5: join
		Exit().         // 6
		Build()
	if got := p.Reconv[1]; got != 5 {
		t.Fatalf("if-else reconvergence = %d, want 5 (join)", got)
	}
	if got := p.Reconv[3]; got != 5 {
		t.Fatalf("then-exit branch reconvergence = %d, want 5", got)
	}
}

func TestReconvergenceLoopBackedge(t *testing.T) {
	p := NewBuilder("loop").
		MovI(0, 10). // 0
		Label("loop").
		IAddI(0, 0, -1).        // 1
		ISetpI(0, CmpNE, 0, 0). // 2
		P(0).Bra("loop").       // 3 backedge
		IAddI(1, 1, 1).         // 4 tail
		Exit().                 // 5
		Build()
	// Lanes that exit the loop early wait at the tail (PC 4).
	if got := p.Reconv[3]; got != 4 {
		t.Fatalf("loop backedge reconvergence = %d, want 4 (tail)", got)
	}
}

func TestReconvergenceBranchToExit(t *testing.T) {
	p := NewBuilder("early").
		ISetpI(0, CmpEQ, 1, 0). // 0
		P(0).Bra("done").       // 1
		IAddI(2, 2, 1).         // 2
		Label("done").
		Exit(). // 3
		Build()
	if got := p.Reconv[1]; got != 3 {
		t.Fatalf("early-exit branch reconvergence = %d, want 3", got)
	}
}

func TestReconvergenceNestedIf(t *testing.T) {
	// if(P0){ if(P1){A} B } C
	p := NewBuilder("nested").
		PNot(0).Bra("outer"). // 0
		PNot(1).Bra("inner"). // 1
		Nop().                // 2 A
		Label("inner").
		Nop(). // 3 B
		Label("outer").
		Nop().  // 4 C
		Exit(). // 5
		Build()
	if got := p.Reconv[0]; got != 4 {
		t.Fatalf("outer reconvergence = %d, want 4", got)
	}
	if got := p.Reconv[1]; got != 3 {
		t.Fatalf("inner reconvergence = %d, want 3", got)
	}
}

// Property: reconvergence PC is always strictly greater than the branch
// PC or equal to the branch target for backedges — specifically, it must
// always be a valid PC in [0, Len] and post-dominate both paths (weakly
// checked: not inside (branchPC, min(target, fallthrough)) exclusive).
func TestReconvergenceBoundsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Generate a random but structured program: sequence of
		// if-else diamonds and loops.
		b := NewBuilder("prop")
		n := int(seed%4) + 1
		for i := 0; i < n; i++ {
			switch (seed >> (2 * i)) % 3 {
			case 0: // diamond
				lbl := string(rune('a'+i)) + "e"
				join := string(rune('a'+i)) + "j"
				b.PNot(0).Bra(lbl).Nop().Bra(join).Label(lbl).Nop().Label(join).Nop()
			case 1: // loop
				lbl := string(rune('a'+i)) + "l"
				b.Label(lbl).IAddI(0, 0, -1).ISetpI(0, CmpNE, 0, 0).P(0).Bra(lbl).Nop()
			case 2:
				b.Nop().Nop()
			}
		}
		p := b.Exit().Build()
		for pc, rpc := range p.Reconv {
			if rpc < 0 || rpc > p.Len() {
				return false
			}
			_ = pc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramString(t *testing.T) {
	p := NewBuilder("str").MovI(1, 3).Ldg(2, 1, 4).Stg(1, 0, 2).Exit().Build()
	s := p.String()
	if s == "" {
		t.Fatal("empty disassembly")
	}
}
