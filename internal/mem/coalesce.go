package mem

// LaneAccess is one thread's contribution to a warp memory instruction:
// the byte address and access width generated by a single SIMT lane.
type LaneAccess struct {
	Lane int
	Addr uint64
	Size uint32
}

// CoalesceResult is the set of transactions produced for one warp memory
// instruction.
type CoalesceResult struct {
	// Segments holds the naturally aligned base address of each
	// transaction, ascending.
	Segments []uint64
	// SegmentSize is the transaction size in bytes.
	SegmentSize uint32
	// Lanes[i] lists the lane IDs whose access falls in Segments[i].
	Lanes [][]int
}

// CoalesceScratch is a reusable coalescer work buffer. Its Coalesce
// method computes the same result as the package-level Coalesce but on
// flat sorted slices instead of a map — after a few warm-up calls sized
// the buffers, the steady state allocates nothing. The returned result
// aliases the scratch and is valid only until the next Coalesce call on
// the same scratch; callers that retain results (or run concurrently)
// need one scratch per retained result. The zero value is ready to use.
type CoalesceScratch struct {
	segs  []uint64
	lanes [][]int // parallel to segs
	spare [][]int // retired lane slices, capacity retained for reuse
}

// Coalesce groups the active lanes' accesses of a warp memory instruction
// into memory transactions of segmentSize bytes (the hardware coalescer).
// Lanes touching the same naturally-aligned segment share one transaction,
// so a fully convergent unit-stride warp produces a single 128-byte
// transaction while a fully divergent (random) warp produces one
// transaction per lane — the behavior that makes BFS neighbor loads
// latency-critical in the paper.
//
// The returned segment base addresses are sorted ascending and unique;
// Lanes[i] lists the lanes covered by segment i, in input order.
func (cs *CoalesceScratch) Coalesce(accesses []LaneAccess, segmentSize uint32) CoalesceResult {
	if segmentSize == 0 || segmentSize&(segmentSize-1) != 0 {
		panic("mem: segment size must be a power of two")
	}
	for _, l := range cs.lanes {
		cs.spare = append(cs.spare, l[:0])
	}
	cs.segs, cs.lanes = cs.segs[:0], cs.lanes[:0]
	for _, a := range accesses {
		// An access may straddle a segment boundary; cover all touched
		// segments (rare for aligned 4B accesses, possible for 8/16B).
		first := LineAddr(a.Addr, segmentSize)
		last := LineAddr(a.Addr+uint64(a.Size)-1, segmentSize)
		for s := first; s <= last; s += uint64(segmentSize) {
			cs.add(s, a.Lane)
		}
	}
	return CoalesceResult{Segments: cs.segs, SegmentSize: segmentSize, Lanes: cs.lanes}
}

// add records that lane touches the segment based at seg, keeping segs
// sorted by binary search + insertion (warps generate at most a few
// dozen segments, where shifting a flat slice beats any tree or map).
func (cs *CoalesceScratch) add(seg uint64, lane int) {
	lo, hi := 0, len(cs.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cs.segs[mid] < seg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cs.segs) && cs.segs[lo] == seg {
		cs.lanes[lo] = append(cs.lanes[lo], lane)
		return
	}
	var l []int
	if n := len(cs.spare); n > 0 {
		l, cs.spare = cs.spare[n-1], cs.spare[:n-1]
	}
	l = append(l, lane)
	cs.segs = append(cs.segs, 0)
	copy(cs.segs[lo+1:], cs.segs[lo:])
	cs.segs[lo] = seg
	cs.lanes = append(cs.lanes, nil)
	copy(cs.lanes[lo+1:], cs.lanes[lo:])
	cs.lanes[lo] = l
}

// Coalesce is the allocation-per-call convenience form: it runs the
// scratch coalescer on a fresh buffer, so the result does not alias any
// shared state. Hot paths hold a CoalesceScratch instead.
func Coalesce(accesses []LaneAccess, segmentSize uint32) CoalesceResult {
	var cs CoalesceScratch
	return cs.Coalesce(accesses, segmentSize)
}
