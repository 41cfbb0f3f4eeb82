package isa

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refState is an independent scalar reference for one thread — its own
// registers, predicates and identifiers, one opcode switch per step —
// that Lanes.Guard and Lanes.Exec are cross-checked against lane by lane.
type refState struct {
	regs  map[Reg]uint32
	preds map[PredReg]bool

	tid, ntid, ctaid, nctaid, laneID, warpID, smID, clock uint32
	params                                                []uint32
}

func newRefState() *refState {
	return &refState{regs: map[Reg]uint32{}, preds: map[PredReg]bool{}}
}

func (r *refState) read(reg Reg) uint32 {
	if reg == RZ {
		return 0
	}
	return r.regs[reg]
}

func (r *refState) write(reg Reg, v uint32) {
	if reg != RZ {
		r.regs[reg] = v
	}
}

func (r *refState) pred(p PredReg) bool { return p == PT || r.preds[p] }

// guard reports whether the instruction's guard lets this thread run it.
func (r *refState) guard(in *Instruction) bool { return r.pred(in.Pred) != in.PredNeg }

func (r *refState) operandB(in *Instruction) uint32 {
	if in.UseImm {
		return uint32(in.Imm)
	}
	return r.read(in.SrcB)
}

// Eval applies the comparison to two 32-bit operands: the scalar
// definition the warp-wide compare is checked against.
func (c CmpOp) Eval(a, b uint32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpSLT:
		return int32(a) < int32(b)
	case CmpSGE:
		return int32(a) >= int32(b)
	}
	panic("isa: unknown comparison")
}

func (r *refState) step(in *Instruction) {
	a := r.read(in.SrcA)
	b := r.operandB(in)
	fa, fb := math.Float32frombits(a), math.Float32frombits(b)
	switch in.Op {
	case OpNOP:
	case OpIADD:
		r.write(in.Dst, a+b)
	case OpISUB:
		r.write(in.Dst, a-b)
	case OpIMUL:
		r.write(in.Dst, a*b)
	case OpIMAD:
		r.write(in.Dst, a*b+r.read(in.SrcC))
	case OpAND:
		r.write(in.Dst, a&b)
	case OpOR:
		r.write(in.Dst, a|b)
	case OpXOR:
		r.write(in.Dst, a^b)
	case OpSHL:
		r.write(in.Dst, a<<(b%32))
	case OpSHR:
		r.write(in.Dst, a>>(b%32))
	case OpIMIN:
		r.write(in.Dst, min(a, b))
	case OpIMAX:
		r.write(in.Dst, max(a, b))
	case OpFADD:
		r.write(in.Dst, math.Float32bits(fa+fb))
	case OpFMUL:
		r.write(in.Dst, math.Float32bits(fa*fb))
	case OpFFMA:
		// The product of two binary32 values is exact in binary64, so
		// this rounds a*b+c once to binary64 and once to binary32.
		fc := math.Float32frombits(r.read(in.SrcC))
		r.write(in.Dst, math.Float32bits(float32(float64(fa)*float64(fb)+float64(fc))))
	case OpMOV:
		if in.UseImm {
			r.write(in.Dst, uint32(in.Imm))
		} else {
			r.write(in.Dst, a)
		}
	case OpSELP:
		if r.pred(in.PDst) {
			r.write(in.Dst, a)
		} else {
			r.write(in.Dst, b)
		}
	case OpS2R:
		v := [...]uint32{SrTID: r.tid, SrNTID: r.ntid, SrCTAID: r.ctaid, SrNCTAID: r.nctaid,
			SrLaneID: r.laneID, SrWarpID: r.warpID, SrSMID: r.smID, SrClock: r.clock, SrParam: 0}[in.Special]
		if in.Special == SrParam && in.Imm >= 0 && int(in.Imm) < len(r.params) {
			v = r.params[in.Imm]
		}
		r.write(in.Dst, v)
	case OpISETP:
		if in.PDst != PT {
			r.preds[in.PDst] = in.Cmp.Eval(a, b)
		}
	default:
		panic("refState: no reference for " + in.Op.String())
	}
}

// oracleOps is every opcode Lanes.Exec implements.
var oracleOps = []Opcode{
	OpNOP, OpIADD, OpISUB, OpIMUL, OpIMAD, OpAND, OpOR, OpXOR, OpSHL, OpSHR,
	OpIMIN, OpIMAX, OpFADD, OpFMUL, OpFFMA, OpMOV, OpSELP, OpS2R, OpISETP,
}

// Small pools, so Dst aliases a source, RZ and PT turn up in every role
// and R0 shares a program with R61 within a few instructions.
var (
	oracleRegs  = []Reg{0, 1, 2, 5, 60, 61, RZ}
	oraclePreds = []PredReg{0, 1, 6, PT}
)

// randomStream draws n instructions over oracleOps and the pools.
func randomStream(rng *rand.Rand, n int) []Instruction {
	reg := func() Reg { return oracleRegs[rng.Intn(len(oracleRegs))] }
	pred := func() PredReg { return oraclePreds[rng.Intn(len(oraclePreds))] }
	insts := make([]Instruction, n)
	for i := range insts {
		in := &insts[i]
		*in = Instruction{Op: oracleOps[rng.Intn(len(oracleOps))],
			Dst: reg(), SrcA: reg(), SrcB: reg(), SrcC: reg(),
			Imm: int32(rng.Uint32()), UseImm: rng.Intn(2) == 0,
			PDst: pred(), Pred: PT, Cmp: CmpOp(rng.Intn(8))}
		if rng.Intn(2) == 0 {
			in.Pred, in.PredNeg = pred(), rng.Intn(2) == 0
		}
		if rng.Intn(4) == 0 {
			in.Imm = int32(rng.Intn(64)) - 8 // small shifts, near-equal compares
		}
		if in.Op == OpS2R {
			in.Special, in.UseImm, in.Imm = Special(rng.Intn(len(specialNames))), false, int32(rng.Intn(5))-1
		}
	}
	return insts
}

// TestEvalMatchesReferenceProperty runs seeded random instruction
// streams through a warp and through one refState per lane in lock-step,
// a fresh random active mask per instruction, and compares every lane's
// registers and predicates after every instruction: the lanes that
// executed must match their reference, and the others must not change.
func TestEvalMatchesReferenceProperty(t *testing.T) {
	for _, width := range []int{1, 7, 32} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed<<8 | int64(width)))
			p := &Program{Name: "oracle", Insts: randomStream(rng, 250)}
			p.predecode()
			s := NewLanes(p, width)
			s.TIDBase, s.NTID, s.CTAID, s.NCTAID = 64, 96, 3, 9
			s.WarpID, s.SMID, s.Params = 2, 11, []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
			refs := make([]*refState, width)
			for l := range refs {
				r := newRefState()
				r.tid, r.ntid, r.ctaid, r.nctaid = 64+uint32(l), 96, 3, 9
				r.laneID, r.warpID, r.smID, r.params = uint32(l), 2, 11, s.Params
				for _, reg := range oracleRegs {
					if p.RegRow[reg] != 0 {
						r.regs[reg] = rng.Uint32()
						s.Row(reg)[l] = r.regs[reg]
					}
				}
				for _, pr := range oraclePreds[:len(oraclePreds)-1] {
					if r.preds[pr] = rng.Intn(2) == 0; r.preds[pr] {
						s.Preds[pr] |= 1 << l
					}
				}
				refs[l] = r
			}
			full := uint32(1)<<width - 1
			for pc := range p.Insts {
				in := &p.Insts[pc]
				active := rng.Uint32() & full
				if rng.Intn(3) == 0 {
					active = full
				}
				s.Clock = rng.Uint32()
				mask := s.Guard(in, active)
				for l, r := range refs {
					r.clock = s.Clock
					runs := active>>l&1 != 0 && r.guard(in)
					if runs != (mask>>l&1 != 0) {
						t.Fatalf("width %d seed %d pc %d %q: Guard(active %#x) = %#x, lane %d reference says %v",
							width, seed, pc, in, active, mask, l, runs)
					}
					if runs {
						r.step(in)
					}
				}
				s.Exec(in, mask)
				for l, r := range refs {
					for _, reg := range oracleRegs {
						if got, want := s.Row(reg)[l], r.read(reg); got != want {
							t.Fatalf("width %d seed %d pc %d %q mask %#x: lane %d %v = %#x, want %#x",
								width, seed, pc, in, mask, l, reg, got, want)
						}
					}
					for _, pr := range oraclePreds {
						if got, want := s.Preds[pr]>>l&1 != 0, r.pred(pr); got != want {
							t.Fatalf("width %d seed %d pc %d %q mask %#x: lane %d %v = %v, want %v",
								width, seed, pc, in, mask, l, pr, got, want)
						}
					}
				}
			}
		}
	}
}

// TestExecRefusesWhatTheSMResolves pins the split: Exec implements
// arithmetic, moves and predicates only, so a control-flow or memory
// opcode reaching it is a bug, not a no-op.
func TestExecRefusesWhatTheSMResolves(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		in := Instruction{Op: op, Dst: 1, SrcA: 2, SrcB: 3, Pred: PT}
		want := !slices.Contains(oracleOps, op)
		func() {
			defer func() {
				if got := recover() != nil; got != want {
					t.Errorf("%v: Exec panicked = %v, want %v", op, got, want)
				}
			}()
			warpOf(2, in).Exec(&in, 3)
		}()
	}
}

func TestAllOpcodesHaveNames(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if op.String() == "" || op.String()[0] == 'o' {
			t.Errorf("opcode %d has bad name %q", op, op.String())
		}
	}
}

func TestInstructionStringsNonEmpty(t *testing.T) {
	insts := []Instruction{
		{Op: OpNOP, Pred: PT},
		{Op: OpIADD, Dst: 1, SrcA: 2, SrcB: 3, Pred: PT},
		{Op: OpIADD, Dst: 1, SrcA: 2, Imm: -5, UseImm: true, Pred: PT},
		{Op: OpIMAD, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4, Pred: PT},
		{Op: OpMOV, Dst: 1, Imm: 7, UseImm: true, Pred: PT},
		{Op: OpS2R, Dst: 1, Special: SrClock, Pred: PT},
		{Op: OpS2R, Dst: 1, Special: SrParam, Imm: 2, Pred: PT},
		{Op: OpISETP, PDst: 1, Cmp: CmpSLT, SrcA: 2, SrcB: 3, Pred: PT},
		{Op: OpBRA, TargetPC: 5, Pred: 0, PredNeg: true},
		{Op: OpEXIT, Pred: PT},
		{Op: OpBAR, Pred: PT},
		{Op: OpLDG, Dst: 1, SrcA: 2, Imm: 8, Pred: PT},
		{Op: OpSTG, SrcA: 2, Imm: 8, SrcB: 3, Pred: PT},
		{Op: OpATOM, Dst: 1, SrcA: 2, SrcB: 3, Pred: PT},
	}
	for _, in := range insts {
		if in.String() == "" {
			t.Errorf("empty disassembly for %v", in.Op)
		}
	}
}
