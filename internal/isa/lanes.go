package isa

import (
	"fmt"
	"math"
	"math/bits"
)

// Lanes is one warp's architectural state, laid out so an instruction is
// decoded once and applied to every lane: the register file is a table of
// rows, Width contiguous words per register, and a predicate is a lane
// bitmask. The SM owns instances (one per resident warp) and calls Guard
// and Exec at issue time.
type Lanes struct {
	// Width is the lane count, 1..32.
	Width int

	// regs holds Program.NumRegs+2 rows: row 0 is the zero row — what RZ
	// reads, shared with every register the program never names, and
	// never written — rows 1..NumRegs are the named registers through
	// Program.RegRow, and the last row is scratch for a broadcast
	// immediate.
	regs []uint32
	row  *[NumRegs]uint8

	// Preds[p] bit l is predicate p of lane l. Preds[PT] is all ones and
	// never written.
	Preds [NumPreds]uint32

	// What S2R reads. A lane's TID is TIDBase plus its index and its
	// LANEID is its index; the rest are uniform across the warp. The SM
	// refreshes Clock before each Exec.
	TIDBase, NTID, CTAID, NCTAID, WarpID, SMID, Clock uint32
	// Params are the kernel launch parameters.
	Params []uint32
}

// NewLanes returns zeroed state for one width-lane warp running p.
func NewLanes(p *Program, width int) Lanes {
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("isa: %d lanes, but a predicate is a 32-bit lane mask", width))
	}
	s := Lanes{Width: width, regs: make([]uint32, (p.NumRegs+2)*width), row: &p.RegRow}
	s.Preds[PT] = ^uint32(0)
	return s
}

// Row returns register r's Width words, one per lane. RZ's row is the
// shared zero row: callers must not write it.
func (s *Lanes) Row(r Reg) []uint32 {
	i := int(s.row[r]) * s.Width
	return s.regs[i : i+s.Width : i+s.Width]
}

// TID returns lane l's thread index within its block.
func (s *Lanes) TID(l int) uint32 { return s.TIDBase + uint32(l) }

// Guard returns the lanes of active whose guard predicate lets them
// execute in.
func (s *Lanes) Guard(in *Instruction, active uint32) uint32 {
	var flip uint32
	if in.PredNeg {
		flip = ^uint32(0)
	}
	return active & (s.Preds[in.Pred] ^ flip)
}

// operands returns the SrcA and operand-B rows, broadcasting the
// immediate into the scratch row when the instruction carries one.
func (s *Lanes) operands(in *Instruction) (a, b []uint32) {
	if !in.UseImm {
		return s.Row(in.SrcA), s.Row(in.SrcB)
	}
	b = s.regs[len(s.regs)-s.Width:]
	for l := range b {
		b[l] = uint32(in.Imm)
	}
	return s.Row(in.SrcA), b
}

// Exec executes an arithmetic, move or predicate instruction in the lanes
// of mask (the guard already applied); no other lane's state changes.
// Control flow and memory instructions are the SM's: it resolves them
// from Guard's mask and the operand rows.
func (s *Lanes) Exec(in *Instruction, mask uint32) {
	if in.Op == OpNOP {
		return
	}
	a, b := s.operands(in)
	if in.Op == OpISETP {
		if in.PDst != PT {
			s.Preds[in.PDst] = s.Preds[in.PDst]&^mask | compare(in.Cmp, a, b)&mask
		}
		return
	}

	// Each opcode below is one unmasked loop over whole rows. With every
	// lane executing that loop writes the destination row directly;
	// otherwise (or when Dst is RZ, whose row is never written) it writes
	// a side row and the lanes of mask are copied over afterwards.
	d := s.Row(in.Dst)
	out := d
	direct := in.Dst != RZ && mask == uint32(1)<<s.Width-1
	if !direct {
		var side [32]uint32
		out = side[:s.Width]
	}
	a, b = a[:len(out)], b[:len(out)]
	switch in.Op {
	case OpIADD:
		for l := range out {
			out[l] = a[l] + b[l]
		}
	case OpISUB:
		for l := range out {
			out[l] = a[l] - b[l]
		}
	case OpIMUL:
		for l := range out {
			out[l] = a[l] * b[l]
		}
	case OpIMAD:
		c := s.Row(in.SrcC)[:len(out)]
		for l := range out {
			out[l] = a[l]*b[l] + c[l]
		}
	case OpAND:
		for l := range out {
			out[l] = a[l] & b[l]
		}
	case OpOR:
		for l := range out {
			out[l] = a[l] | b[l]
		}
	case OpXOR:
		for l := range out {
			out[l] = a[l] ^ b[l]
		}
	case OpSHL:
		for l := range out {
			out[l] = a[l] << (b[l] & 31)
		}
	case OpSHR:
		for l := range out {
			out[l] = a[l] >> (b[l] & 31)
		}
	case OpIMIN:
		for l := range out {
			out[l] = min(a[l], b[l])
		}
	case OpIMAX:
		for l := range out {
			out[l] = max(a[l], b[l])
		}
	case OpFADD:
		for l := range out {
			out[l] = f2b(b2f(a[l]) + b2f(b[l]))
		}
	case OpFMUL:
		for l := range out {
			out[l] = f2b(b2f(a[l]) * b2f(b[l]))
		}
	case OpFFMA:
		c := s.Row(in.SrcC)[:len(out)]
		for l := range out {
			out[l] = f2b(float32(float64(b2f(a[l]))*float64(b2f(b[l])) + float64(b2f(c[l]))))
		}
	case OpMOV:
		if in.UseImm {
			a = b
		}
		copy(out, a)
	case OpSELP:
		p := s.Preds[in.PDst]
		for l := range out {
			if p&1 != 0 {
				out[l] = a[l]
			} else {
				out[l] = b[l]
			}
			p >>= 1
		}
	case OpS2R:
		s.special(in, out)
	default:
		panic("isa: unimplemented opcode " + in.Op.String())
	}
	if !direct && in.Dst != RZ {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = out[l]
		}
	}
}

// compare returns the lane mask of a <cmp> b. Every comparison is the
// unsigned a < b or a == b with the operands swapped, their sign bits
// flipped (signed order) or the result inverted.
func compare(cmp CmpOp, a, b []uint32) uint32 {
	var r, sign, invert uint32
	switch cmp {
	case CmpNE:
		invert = ^uint32(0)
		fallthrough
	case CmpEQ:
		b = b[:len(a)]
		for l := range a {
			if a[l] == b[l] {
				r |= 1 << l
			}
		}
		return r ^ invert
	case CmpLT:
	case CmpGE:
		invert = ^uint32(0)
	case CmpGT:
		a, b = b, a
	case CmpLE:
		a, b, invert = b, a, ^uint32(0)
	case CmpSLT:
		sign = 1 << 31
	case CmpSGE:
		sign, invert = 1<<31, ^uint32(0)
	default:
		panic("isa: unknown comparison")
	}
	b = b[:len(a)]
	for l := range a {
		if a[l]^sign < b[l]^sign {
			r |= 1 << l
		}
	}
	return r ^ invert
}

// special fills out with the special register an S2R reads.
func (s *Lanes) special(in *Instruction, out []uint32) {
	var v uint32
	switch in.Special {
	case SrTID:
		for l := range out {
			out[l] = s.TID(l)
		}
		return
	case SrLaneID:
		for l := range out {
			out[l] = uint32(l)
		}
		return
	case SrNTID:
		v = s.NTID
	case SrCTAID:
		v = s.CTAID
	case SrNCTAID:
		v = s.NCTAID
	case SrWarpID:
		v = s.WarpID
	case SrSMID:
		v = s.SMID
	case SrClock:
		v = s.Clock
	case SrParam:
		if idx := int(in.Imm); idx >= 0 && idx < len(s.Params) {
			v = s.Params[idx]
		}
	default:
		panic("isa: unknown special register")
	}
	for l := range out {
		out[l] = v
	}
}

func b2f(v uint32) float32 { return math.Float32frombits(v) }
func f2b(v float32) uint32 { return math.Float32bits(v) }
