// Package isa defines the SIMT instruction set executed by the simulated
// GPU: a small register ISA in the style of NVIDIA SASS/PTX with integer
// and floating-point arithmetic, predicated branches, barrier
// synchronization, special-register reads (thread/block IDs, the clock
// counter used by the paper's microbenchmarks), and loads/stores to the
// global, local and shared memory spaces. The package also provides the
// functional execution semantics — warp-wide: Lanes holds one warp's
// registers as rows and its predicates as lane masks, and executes an
// instruction once for all its lanes — and the control-flow analysis
// that computes branch reconvergence points (immediate post-dominators)
// for the SIMT divergence stack.
package isa

import "fmt"

// Opcode enumerates the instructions.
type Opcode uint8

const (
	// OpNOP does nothing (pipeline filler).
	OpNOP Opcode = iota

	// Integer arithmetic: Dst = SrcA <op> operandB.
	OpIADD
	OpISUB
	OpIMUL
	// OpIMAD computes Dst = SrcA*operandB + SrcC.
	OpIMAD
	OpAND
	OpOR
	OpXOR
	OpSHL
	OpSHR // logical shift right
	OpIMIN
	OpIMAX

	// Floating point (IEEE-754 binary32 carried in 32-bit registers).
	OpFADD
	OpFMUL
	// OpFFMA computes Dst = SrcA*operandB + SrcC (fused).
	OpFFMA

	// Data movement.
	// OpMOV copies SrcA (or the immediate when UseImm) into Dst.
	OpMOV
	// OpSELP selects Dst = Pred? SrcA : operandB using PSrc.
	OpSELP
	// OpS2R reads a special register selected by Special into Dst.
	OpS2R

	// Predicate manipulation.
	// OpISETP sets PDst = SrcA <Cmp> operandB (integer compare).
	OpISETP

	// Control flow.
	// OpBRA jumps to Target when the guard predicate passes (per lane);
	// divergence is handled by the SIMT stack.
	OpBRA
	// OpEXIT terminates the thread.
	OpEXIT
	// OpBAR blocks the warp until all warps of the block arrive.
	OpBAR

	// Memory. Address = SrcA + Imm (byte address). Loads write Dst;
	// stores read SrcB as the value.
	OpLDG // load global
	OpSTG // store global
	OpLDL // load local (thread-private, interleaved backing in DRAM)
	OpSTL // store local
	OpLDS // load shared (on-chip scratchpad)
	OpSTS // store shared
	// OpATOM is a global atomic fetch-and-add: Dst = old value of
	// [SrcA+Imm]; memory gets old+SrcB. Atomics execute at the L2 (they
	// bypass the L1) as on real GPUs.
	OpATOM

	numOpcodes
)

var opNames = [numOpcodes]string{
	"NOP", "IADD", "ISUB", "IMUL", "IMAD", "AND", "OR", "XOR", "SHL",
	"SHR", "IMIN", "IMAX", "FADD", "FMUL", "FFMA", "MOV", "SELP", "S2R",
	"ISETP", "BRA", "EXIT", "BAR", "LDG", "STG", "LDL", "STL", "LDS", "STS",
	"ATOM",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses a memory space.
func (o Opcode) IsMemory() bool {
	switch o {
	case OpLDG, OpSTG, OpLDL, OpSTL, OpLDS, OpSTS, OpATOM:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes memory.
func (o Opcode) IsStore() bool { return o == OpSTG || o == OpSTL || o == OpSTS }

// WritesDst reports whether the instruction produces a register result.
func (o Opcode) WritesDst() bool {
	switch o {
	case OpIADD, OpISUB, OpIMUL, OpIMAD, OpAND, OpOR, OpXOR, OpSHL, OpSHR,
		OpIMIN, OpIMAX, OpFADD, OpFMUL, OpFFMA, OpMOV, OpSELP, OpS2R,
		OpLDG, OpLDL, OpLDS, OpATOM:
		return true
	}
	return false
}

// CmpOp is the comparison used by OpISETP.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT // unsigned
	CmpLE
	CmpGT
	CmpGE
	CmpSLT // signed
	CmpSGE
)

var cmpNames = []string{"EQ", "NE", "LT", "LE", "GT", "GE", "SLT", "SGE"}

// String returns the comparison mnemonic.
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Special selects the source of an OpS2R read.
type Special uint8

const (
	// SrTID is the thread index within the block (1-D).
	SrTID Special = iota
	// SrNTID is the block size in threads.
	SrNTID
	// SrCTAID is the block index within the grid (1-D).
	SrCTAID
	// SrNCTAID is the grid size in blocks.
	SrNCTAID
	// SrLaneID is the lane within the warp.
	SrLaneID
	// SrWarpID is the warp index within the block.
	SrWarpID
	// SrSMID is the SM executing the warp.
	SrSMID
	// SrClock is the current core-clock cycle (low 32 bits) — the
	// register the paper's pointer-chase microbenchmark reads to time
	// traversals.
	SrClock
	// SrParam reads kernel parameter word Imm.
	SrParam
)

var specialNames = []string{
	"TID", "NTID", "CTAID", "NCTAID", "LANEID", "WARPID", "SMID", "CLOCK", "PARAM",
}

// String returns the special-register name.
func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("sr(%d)", uint8(s))
}

// Reg is an architectural register index (R0..R62). The ISA provides 63
// general registers per thread plus RZ, a hardwired zero register.
type Reg uint8

// NumRegs is the architectural register count including RZ.
const NumRegs = 64

// RZ reads as zero and discards writes, like SASS's RZ.
const RZ Reg = 63

// String renders the register name.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// PredReg is a predicate register index (P0..P6) or PT.
type PredReg uint8

// NumPreds is the predicate register count including PT.
const NumPreds = 8

// PT is the hardwired true predicate.
const PT PredReg = 7

// String renders the predicate name.
func (p PredReg) String() string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", uint8(p))
}
