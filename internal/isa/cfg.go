package isa

// Control-flow analysis: computes, for every branch, the reconvergence PC
// used by the SIMT divergence stack. The reconvergence point is the
// branch's immediate post-dominator, the standard choice in GPU
// microarchitecture (Fung et al.) and what GPGPU-Sim uses; real hardware
// encodes the same information via compiler-inserted SSY instructions.

// block is a basic block of [start, end) instruction PCs.
type block struct {
	start, end int // end exclusive
	succs      []int
}

// buildCFG partitions the program into basic blocks and links successors.
// The returned virtual exit block (index len(blocks)) gathers EXIT
// instructions and program fall-off.
func buildCFG(p *Program) ([]block, map[int]int) {
	n := p.Len()
	isLeader := make([]bool, n)
	if n > 0 {
		isLeader[0] = true
	}
	for pc := 0; pc < n; pc++ {
		in := &p.Insts[pc]
		if in.Op == OpBRA {
			if in.TargetPC >= 0 && in.TargetPC < n {
				isLeader[in.TargetPC] = true
			}
			if pc+1 < n {
				isLeader[pc+1] = true
			}
		}
		if in.Op == OpEXIT && pc+1 < n {
			isLeader[pc+1] = true
		}
	}
	var blocks []block
	blockOf := make(map[int]int) // leader pc -> block index
	for pc := 0; pc < n; pc++ {
		if isLeader[pc] {
			blockOf[pc] = len(blocks)
			blocks = append(blocks, block{start: pc})
		}
	}
	for i := range blocks {
		if i+1 < len(blocks) {
			blocks[i].end = blocks[i+1].start
		} else {
			blocks[i].end = n
		}
	}
	exitIdx := len(blocks)
	for i := range blocks {
		last := &p.Insts[blocks[i].end-1]
		switch last.Op {
		case OpEXIT:
			blocks[i].succs = append(blocks[i].succs, exitIdx)
		case OpBRA:
			blocks[i].succs = append(blocks[i].succs, blockOf[last.TargetPC])
			// A guarded branch may fall through; an unguarded BRA is
			// unconditional for the lanes that execute it, but lanes
			// whose guard failed continue to the fallthrough, so both
			// edges exist whenever the branch is predicated. For
			// simplicity and safety we always add the fallthrough edge
			// when one exists: a spurious edge can only move the
			// reconvergence point earlier, which preserves correctness.
			if blocks[i].end < n {
				blocks[i].succs = append(blocks[i].succs, blockOf[blocks[i].end])
			}
		default:
			if blocks[i].end < n {
				blocks[i].succs = append(blocks[i].succs, blockOf[blocks[i].end])
			} else {
				blocks[i].succs = append(blocks[i].succs, exitIdx)
			}
		}
	}
	return blocks, blockOf
}

// Analyze computes the reconvergence PC for every branch instruction.
// The result is indexed by PC and holds each branch's reconvergence PC
// (zero at every other PC); a branch whose immediate post-dominator is
// the virtual exit reconverges at program end, encoded as p.Len() (the
// SIMT stack treats a reconvergence PC past the program as "never",
// which is correct because all lanes reach EXIT).
func Analyze(p *Program) []int {
	blocks, _ := buildCFG(p)
	nb := len(blocks)
	exitIdx := nb
	total := nb + 1

	// Post-dominator sets as bitsets, iterative dataflow:
	// pdom(exit) = {exit}; pdom(b) = {b} ∪ ⋂ pdom(succ).
	words := (total + 63) / 64
	pdom := make([][]uint64, total)
	full := make([]uint64, words)
	for i := 0; i < total; i++ {
		full[i/64] |= 1 << (i % 64)
	}
	for i := range pdom {
		pdom[i] = make([]uint64, words)
		if i == exitIdx {
			pdom[i][i/64] = 1 << (i % 64)
		} else {
			copy(pdom[i], full)
		}
	}
	changed := true
	tmp := make([]uint64, words)
	for changed {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			copy(tmp, full)
			if len(blocks[b].succs) == 0 {
				// Unreachable-from-exit block (e.g. infinite loop with
				// no EXIT); treat as post-dominated only by itself.
				for w := range tmp {
					tmp[w] = 0
				}
			}
			for _, s := range blocks[b].succs {
				for w := range tmp {
					tmp[w] &= pdom[s][w]
				}
			}
			tmp[b/64] |= 1 << (b % 64)
			same := true
			for w := range tmp {
				if tmp[w] != pdom[b][w] {
					same = false
					break
				}
			}
			if !same {
				copy(pdom[b], tmp)
				changed = true
			}
		}
	}

	has := func(set []uint64, i int) bool { return set[i/64]&(1<<(i%64)) != 0 }

	// ipdom(b) = the strict post-dominator of b that is post-dominated
	// by every other strict post-dominator of b (the nearest one).
	ipdom := make([]int, nb)
	for b := 0; b < nb; b++ {
		ipdom[b] = exitIdx
		for c := 0; c < total; c++ {
			if c == b || !has(pdom[b], c) {
				continue
			}
			// c is the immediate post-dominator iff every other strict
			// post-dominator d of b also post-dominates c (i.e. lies
			// beyond c on every path), which means d ∈ pdom(c).
			nearest := true
			for d := 0; d < total; d++ {
				if d == b || d == c || !has(pdom[b], d) {
					continue
				}
				if !has(pdom[c], d) {
					nearest = false
					break
				}
			}
			if nearest {
				ipdom[b] = c
				break
			}
		}
	}

	reconv := make([]int, p.Len())
	// Map each branch to the first PC of its block's ipdom.
	blockIdxOfPC := make([]int, p.Len())
	for i, bl := range blocks {
		for pc := bl.start; pc < bl.end; pc++ {
			blockIdxOfPC[pc] = i
		}
	}
	for pc := 0; pc < p.Len(); pc++ {
		if p.Insts[pc].Op != OpBRA {
			continue
		}
		ip := ipdom[blockIdxOfPC[pc]]
		if ip == exitIdx {
			reconv[pc] = p.Len()
		} else {
			reconv[pc] = blocks[ip].start
		}
	}
	return reconv
}
