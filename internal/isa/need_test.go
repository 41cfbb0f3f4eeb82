package isa

import "testing"

// TestIssueNeedEveryOpcode pins Program.Need — what the SM's issue stage
// checks against its scoreboard — for every opcode constant against a
// hand-written operand-role table: the values the per-issue decode it
// replaced (SrcRegs + WritesDst + guard + PDst) produced. A new opcode
// without a row here fails the test.
func TestIssueNeedEveryOpcode(t *testing.T) {
	const d, a, b, c = Reg(1), Reg(2), Reg(3), Reg(4)
	const rD, rA, rB, rC = uint64(1) << d, uint64(1) << a, uint64(1) << b, uint64(1) << c
	type row struct {
		regs, immRegs uint64 // with a register / an immediate operand B
		pdst, mem     bool
	}
	alu2 := row{regs: rD | rA | rB, immRegs: rD | rA}
	alu3 := row{regs: rD | rA | rB | rC, immRegs: rD | rA | rC}
	load := row{regs: rD | rA, immRegs: rD | rA, mem: true}
	store := row{regs: rA | rB, immRegs: rA | rB, mem: true}
	table := map[Opcode]row{
		OpNOP: {}, OpBRA: {}, OpEXIT: {}, OpBAR: {},
		OpIADD: alu2, OpISUB: alu2, OpIMUL: alu2, OpAND: alu2, OpOR: alu2, OpXOR: alu2,
		OpSHL: alu2, OpSHR: alu2, OpIMIN: alu2, OpIMAX: alu2, OpFADD: alu2, OpFMUL: alu2,
		OpIMAD: alu3, OpFFMA: alu3,
		OpMOV:   {regs: rD | rA, immRegs: rD},
		OpSELP:  {regs: rD | rA | rB, immRegs: rD | rA, pdst: true},
		OpS2R:   {regs: rD, immRegs: rD},
		OpISETP: {regs: rA | rB, immRegs: rA, pdst: true},
		OpLDG:   load, OpLDL: load, OpLDS: load,
		OpSTG: store, OpSTL: store, OpSTS: store,
		OpATOM: {regs: rD | rA | rB, immRegs: rD | rA | rB, mem: true},
	}

	bld := NewBuilder("every-opcode")
	var wants []IssueNeed // by pc
	for op := Opcode(0); op < numOpcodes; op++ {
		r, ok := table[op]
		if !ok {
			t.Fatalf("opcode %v has no row in the issue-need table", op)
		}
		for _, useImm := range []bool{false, true} {
			for _, dst := range []Reg{d, RZ} {
				for _, guard := range []PredReg{PT, 1} {
					for _, pdst := range []PredReg{PT, 2} {
						in := Instruction{Op: op, Dst: dst, SrcA: a, SrcB: b, SrcC: c,
							UseImm: useImm, PDst: pdst, label: "end"}
						want := IssueNeed{Regs: r.regs, Mem: r.mem}
						if useImm {
							want.Regs = r.immRegs
						}
						if dst == RZ {
							want.Regs &^= rD
						}
						if guard != PT {
							bld.P(guard)
							want.Preds |= 1 << guard
						}
						if r.pdst && pdst != PT {
							want.Preds |= 1 << pdst
						}
						bld.push(in)
						wants = append(wants, want)
					}
				}
			}
		}
	}
	p := bld.Label("end").Exit().Build()
	if len(p.Need) != p.Len() {
		t.Fatalf("Need has %d entries for %d instructions", len(p.Need), p.Len())
	}
	for pc, want := range wants {
		if got := p.Need[pc]; got != want {
			t.Errorf("pc %d %q: Need = %+v, want %+v", pc, p.At(pc), got, want)
		}
	}
}
