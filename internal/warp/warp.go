// Package warp models a SIMT warp: its architectural state — one
// warp-wide register file and predicate masks (isa.Lanes), not a context
// per thread — and the divergence (reconvergence) stack that serializes
// divergent control flow, in the immediate-post-dominator style used by
// NVIDIA hardware and GPGPU-Sim. Divergence is what turns one BFS
// neighbor-loop instruction into many serialized memory instructions, a
// key reason the paper's example workload cannot hide its memory latency.
package warp

import (
	"fmt"

	"gpulat/internal/isa"
)

// NoReconverge is the RPC value for stack entries that never reconverge
// by PC equality (the top-level entry and branches whose reconvergence
// point is program end).
const NoReconverge = -1

// StackEntry is one SIMT stack level.
type StackEntry struct {
	PC   int
	RPC  int
	Mask uint32
}

// Warp is one warp's execution state.
type Warp struct {
	// ID is the hardware warp slot within the SM; BlockSlot identifies
	// the resident block it belongs to.
	ID        int
	BlockSlot int

	// Lanes is the warp's registers, predicates and S2R identifiers;
	// lanes beyond the block size are never in an active mask.
	isa.Lanes

	stack  []StackEntry
	exited uint32

	// AtBarrier marks the warp as waiting at a block barrier.
	AtBarrier bool

	// InstRetired counts issued instructions (dynamic, warp-level).
	InstRetired uint64
}

// New creates a warp of warpSize lanes running prog whose initial active
// mask enables activeLanes lanes.
func New(id, blockSlot int, prog *isa.Program, warpSize, activeLanes int) *Warp {
	if activeLanes <= 0 || activeLanes > warpSize {
		panic(fmt.Sprintf("warp: active lanes %d out of range (warp size %d)", activeLanes, warpSize))
	}
	var mask uint32
	for i := 0; i < activeLanes; i++ {
		mask |= 1 << i
	}
	return &Warp{
		ID:        id,
		BlockSlot: blockSlot,
		Lanes:     isa.NewLanes(prog, warpSize),
		stack:     []StackEntry{{PC: 0, RPC: NoReconverge, Mask: mask}},
	}
}

// Done reports whether all lanes have exited.
func (w *Warp) Done() bool { return len(w.stack) == 0 }

// PC returns the warp's next fetch PC. Calling PC on a done warp panics.
func (w *Warp) PC() int { return w.top().PC }

// ActiveMask returns the lanes that execute the next instruction.
func (w *Warp) ActiveMask() uint32 {
	if len(w.stack) == 0 {
		return 0
	}
	return w.top().Mask &^ w.exited
}

// StackDepth returns the divergence stack depth (diagnostics).
func (w *Warp) StackDepth() int { return len(w.stack) }

func (w *Warp) top() *StackEntry {
	if len(w.stack) == 0 {
		panic("warp: operation on completed warp")
	}
	return &w.stack[len(w.stack)-1]
}

// Advance moves the warp to nextPC, popping reconverged stack levels.
func (w *Warp) Advance(nextPC int) {
	w.top().PC = nextPC
	w.popReconverged()
}

func (w *Warp) popReconverged() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.Mask&^w.exited == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if len(w.stack) > 1 && t.PC == t.RPC {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// Branch resolves a (possibly divergent) branch executed at branchPC with
// the given taken lanes. reconvPC is the branch's reconvergence point
// from the program analysis; pass the program length for "reconverge at
// exit". takenMask must be a subset of the current active mask.
func (w *Warp) Branch(branchPC, targetPC, reconvPC, programLen int, takenMask uint32) {
	active := w.ActiveMask()
	if takenMask&^active != 0 {
		panic("warp: taken mask includes inactive lanes")
	}
	notTaken := active &^ takenMask
	fall := branchPC + 1
	switch {
	case notTaken == 0:
		w.Advance(targetPC)
	case takenMask == 0:
		w.Advance(fall)
	default:
		rpc := reconvPC
		if rpc >= programLen {
			rpc = NoReconverge
		}
		// The current entry becomes the reconvergence entry...
		w.top().PC = reconvPC
		// ...and the two paths execute from pushed entries, taken path
		// first (on top).
		w.stack = append(w.stack,
			StackEntry{PC: fall, RPC: rpc, Mask: notTaken},
			StackEntry{PC: targetPC, RPC: rpc, Mask: takenMask},
		)
	}
}

// ExitLanes retires the given lanes (subset of active). If the top-of-
// stack empties, control falls to outer stack levels; when every lane
// has exited the warp is Done.
func (w *Warp) ExitLanes(mask uint32, fallthroughPC int) {
	active := w.ActiveMask()
	if mask&^active != 0 {
		panic("warp: exiting inactive lanes")
	}
	w.exited |= mask
	if active&^mask != 0 {
		// Some lanes survive (predicated EXIT): they continue.
		w.Advance(fallthroughPC)
		return
	}
	w.popReconverged()
}
