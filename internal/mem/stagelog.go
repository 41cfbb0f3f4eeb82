package mem

import (
	"fmt"

	"gpulat/internal/sim"
)

// Point is a boundary in a memory request's lifetime. Components mark the
// request's StageLog as it crosses each boundary; the latency analysis in
// internal/core derives the paper's eight stage durations (Figure 1) from
// consecutive marks.
//
// The full point sequence for a request that misses everywhere is:
//
//	Issue → Created → L1Access → ICNTInject → ROPArrive → L2QArrive →
//	DRAMQArrive → DRAMSched → DRAMDone → ReturnSM
//
// Requests that hit in L1 mark only Issue, L1Access and ReturnSM; requests
// that hit in L2 skip the three DRAM points.
type Point uint8

const (
	// PtIssue marks the cycle the load/store instruction issued into
	// the LDST unit (instruction-level latency starts here; Figure 2's
	// exposure analysis uses it).
	PtIssue Point = iota
	// PtCreated marks the cycle the coalescer generated this memory
	// transaction at the head of the LDST unit — the start of the
	// request lifetime that Figure 1 breaks down, mirroring GPGPU-Sim's
	// memory-fetch creation timestamp.
	PtCreated
	// PtL1Access marks the cycle the request accessed the L1 data cache
	// tag array (or, on architectures where globals bypass L1, the cycle
	// it would have — i.e. left the coalescer).
	PtL1Access
	// PtICNTInject marks the cycle the request left the SM's miss queue
	// and was injected into the interconnection network.
	PtICNTInject
	// PtROPArrive marks arrival at the memory partition's ROP queue.
	PtROPArrive
	// PtL2QArrive marks entry into the L2 access queue.
	PtL2QArrive
	// PtDRAMQArrive marks entry into the DRAM scheduler queue after an
	// L2 miss.
	PtDRAMQArrive
	// PtDRAMSched marks the cycle the DRAM scheduler selected the
	// request for service (end of arbitration).
	PtDRAMSched
	// PtDRAMDone marks the cycle the DRAM data transfer completed.
	PtDRAMDone
	// PtReturnSM marks the cycle the response reached the SM and the
	// load's data was written back (request complete).
	PtReturnSM

	// NumPoints is the number of distinct points.
	NumPoints
)

var pointNames = [NumPoints]string{
	"Issue", "Created", "L1Access", "ICNTInject", "ROPArrive", "L2QArrive",
	"DRAMQArrive", "DRAMSched", "DRAMDone", "ReturnSM",
}

// String returns the point's name.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// StageLog records the cycle at which a request crossed each pipeline
// boundary. A zero cycle with set==false means the point was not reached
// (e.g. an L1 hit never reaches ICNTInject).
type StageLog struct {
	at  [NumPoints]sim.Cycle
	set [NumPoints]bool

	// MergedAtL1 is true when the request merged into an in-flight MSHR
	// entry at the L1 and therefore did not itself traverse the network.
	MergedAtL1 bool
	// MergedAtL2 is true when the request merged at the L2 MSHRs.
	MergedAtL2 bool

	// IssueStamp and ReturnStamp are the issuing SM's count of issue
	// cycles (cycles in which it issued at least one instruction) before
	// PtIssue and before PtReturnSM: their difference is the part of the
	// load's instruction-visible latency the SM hid by issuing other
	// work, the rest is exposed (Figure 2).
	IssueStamp, ReturnStamp uint64
}

// Mark records that the request crossed point p at cycle c. Marking the
// same point twice keeps the first mark (a request can be retried into a
// full queue; its first arrival at the boundary is the honest timestamp).
func (l *StageLog) Mark(p Point, c sim.Cycle) {
	if l == nil || l.set[p] {
		return
	}
	l.at[p] = c
	l.set[p] = true
}

// At returns the cycle at which point p was crossed.
func (l *StageLog) At(p Point) (sim.Cycle, bool) {
	if l == nil || !l.set[p] {
		return 0, false
	}
	return l.at[p], true
}

// MustAt returns the cycle for p, panicking if the point was not marked.
// Use only where the pipeline guarantees the mark exists.
func (l *StageLog) MustAt(p Point) sim.Cycle {
	c, ok := l.At(p)
	if !ok {
		panic("mem: stage point not marked: " + p.String())
	}
	return c
}

// Total returns the request's full latency (Issue → ReturnSM).
func (l *StageLog) Total() (sim.Cycle, bool) {
	a, oka := l.At(PtIssue)
	b, okb := l.At(PtReturnSM)
	if !oka || !okb {
		return 0, false
	}
	return b - a, true
}

// Complete reports whether both endpoints were marked.
func (l *StageLog) Complete() bool {
	return l != nil && l.set[PtIssue] && l.set[PtReturnSM]
}

// Monotonic verifies that all marked points are in non-decreasing cycle
// order following the canonical sequence. It is used by tests and the
// analysis layer as an integrity check on component instrumentation.
func (l *StageLog) Monotonic() bool {
	if l == nil {
		return false
	}
	var prev sim.Cycle
	havePrev := false
	for p := Point(0); p < NumPoints; p++ {
		if !l.set[p] {
			continue
		}
		if havePrev && l.at[p] < prev {
			return false
		}
		prev = l.at[p]
		havePrev = true
	}
	return true
}

// String renders the marked points for diagnostics.
func (l *StageLog) String() string {
	if l == nil {
		return "stagelog(nil)"
	}
	s := "stagelog{"
	first := true
	for p := Point(0); p < NumPoints; p++ {
		if !l.set[p] {
			continue
		}
		if !first {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", p, l.at[p])
		first = false
	}
	return s + "}"
}
