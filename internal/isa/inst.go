package isa

import (
	"fmt"
	"math/bits"
	"strings"
)

// Instruction is one decoded ISA instruction. Fields not used by an
// opcode are ignored.
type Instruction struct {
	Op Opcode

	Dst  Reg
	SrcA Reg
	SrcB Reg
	SrcC Reg

	// Imm is the immediate operand; when UseImm is set it replaces SrcB
	// for arithmetic, and for memory ops it is always the address
	// offset added to SrcA.
	Imm    int32
	UseImm bool

	// PDst receives the result of OpISETP.
	PDst PredReg
	// Guard predicate: the instruction executes in lanes where
	// Pred (negated when PredNeg) is true. Defaults to PT via builder.
	Pred    PredReg
	PredNeg bool

	Cmp     CmpOp
	Special Special

	// TargetPC is the resolved branch destination.
	TargetPC int
	// label is the unresolved branch target (builder use).
	label string
}

// SrcRegs appends the register numbers read by the instruction.
func (in *Instruction) SrcRegs(buf []Reg) []Reg {
	add := func(r Reg) {
		if r != RZ {
			buf = append(buf, r)
		}
	}
	switch in.Op {
	case OpIADD, OpISUB, OpIMUL, OpAND, OpOR, OpXOR, OpSHL, OpSHR,
		OpIMIN, OpIMAX, OpFADD, OpFMUL, OpISETP:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
	case OpIMAD, OpFFMA:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
		add(in.SrcC)
	case OpMOV:
		if !in.UseImm {
			add(in.SrcA)
		}
	case OpSELP:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
	case OpLDG, OpLDL, OpLDS:
		add(in.SrcA)
	case OpSTG, OpSTL, OpSTS, OpATOM:
		add(in.SrcA)
		add(in.SrcB)
	}
	return buf
}

// String renders an assembly-like form.
func (in *Instruction) String() string {
	var b strings.Builder
	if in.Pred != PT || in.PredNeg {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		fmt.Fprintf(&b, "@%s%s ", neg, in.Pred)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpNOP, OpEXIT, OpBAR:
	case OpBRA:
		fmt.Fprintf(&b, " %d", in.TargetPC)
	case OpS2R:
		if in.Special == SrParam {
			fmt.Fprintf(&b, " %s, %s[%d]", in.Dst, in.Special, in.Imm)
		} else {
			fmt.Fprintf(&b, " %s, %s", in.Dst, in.Special)
		}
	case OpISETP:
		fmt.Fprintf(&b, ".%s %s, %s, %s", in.Cmp, in.PDst, in.SrcA, in.operandBString())
	case OpLDG, OpLDL, OpLDS:
		fmt.Fprintf(&b, " %s, [%s+%d]", in.Dst, in.SrcA, in.Imm)
	case OpSTG, OpSTL, OpSTS:
		fmt.Fprintf(&b, " [%s+%d], %s", in.SrcA, in.Imm, in.SrcB)
	case OpATOM:
		fmt.Fprintf(&b, ".ADD %s, [%s+%d], %s", in.Dst, in.SrcA, in.Imm, in.SrcB)
	case OpIMAD, OpFFMA:
		fmt.Fprintf(&b, " %s, %s, %s, %s", in.Dst, in.SrcA, in.operandBString(), in.SrcC)
	case OpMOV:
		fmt.Fprintf(&b, " %s, %s", in.Dst, in.operandBStringFromA())
	default:
		fmt.Fprintf(&b, " %s, %s, %s", in.Dst, in.SrcA, in.operandBString())
	}
	return b.String()
}

func (in *Instruction) operandBString() string {
	if in.UseImm {
		return fmt.Sprintf("%d", in.Imm)
	}
	return in.SrcB.String()
}

func (in *Instruction) operandBStringFromA() string {
	if in.UseImm {
		return fmt.Sprintf("%d", in.Imm)
	}
	return in.SrcA.String()
}

// Program is a fully resolved instruction sequence. PCs are instruction
// indices (not byte addresses).
type Program struct {
	Name  string
	Insts []Instruction
	// Reconv[pc] is branch pc's reconvergence PC (immediate
	// post-dominator), computed by Analyze; zero where pc is no branch.
	Reconv []int
	// Need[pc] is what the issue stage must find free before instruction
	// pc may issue, predecoded by Build and read-only afterwards.
	Need []IssueNeed
	// NumRegs counts the registers the program names (reads, or writes
	// as a Dst; RZ never counts) and RegRow maps each, in index order, to
	// its row 1..NumRegs of a warp's register file (Lanes); every other
	// register maps to row 0. A warp's file is sized by NumRegs, not by
	// the highest index: kernels park temporaries at R60/R61.
	NumRegs int
	RegRow  [NumRegs]uint8
}

// predecode fills Need, NumRegs and RegRow from the instructions.
func (p *Program) predecode() {
	p.Need = make([]IssueNeed, len(p.Insts))
	var named uint64
	for pc := range p.Insts {
		p.Need[pc] = p.Insts[pc].issueNeed()
		named |= p.Need[pc].Regs
	}
	for ; named != 0; named &= named - 1 {
		p.NumRegs++
		p.RegRow[bits.TrailingZeros64(named)] = uint8(p.NumRegs)
	}
}

// IssueNeed is one instruction's issue requirement: the scoreboard
// entries that must be clear and whether it takes an LDST-queue slot.
type IssueNeed struct {
	Regs  uint64 // source registers and the written Dst (RZ never set)
	Preds uint8  // guard, plus PDst for ISETP/SELP (PT never set)
	Mem   bool
}

// issueNeed decodes the instruction's issue requirement.
func (in *Instruction) issueNeed() IssueNeed {
	n := IssueNeed{Mem: in.Op.IsMemory()}
	var buf [4]Reg
	for _, r := range in.SrcRegs(buf[:0]) {
		n.Regs |= 1 << r
	}
	if in.Op.WritesDst() && in.Dst != RZ {
		n.Regs |= 1 << in.Dst
	}
	if in.Pred != PT {
		n.Preds |= 1 << in.Pred
	}
	if (in.Op == OpISETP || in.Op == OpSELP) && in.PDst != PT {
		n.Preds |= 1 << in.PDst
	}
	return n
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Insts) }

// At returns the instruction at pc.
func (p *Program) At(pc int) *Instruction { return &p.Insts[pc] }

// String disassembles the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n", p.Name)
	for pc := range p.Insts {
		fmt.Fprintf(&b, "%4d: %s\n", pc, p.Insts[pc].String())
	}
	return b.String()
}
