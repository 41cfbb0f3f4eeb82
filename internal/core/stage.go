// Package core implements the paper's latency analysis — the primary
// contribution of the reproduction. It provides:
//
//   - the dynamic latency instrumentation (Section III): per-request
//     stage breakdowns (Figure 1) derived from the StageLogs stamped by
//     the memory pipeline, and the exposed/hidden latency classification
//     (Figure 2) derived from per-SM issue-slot accounting;
//   - the static latency analysis (Section II): the pointer-chase
//     measurement harness and plateau extraction that reproduce Table I
//     on any architecture preset.
package core

import (
	"fmt"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// Stage is one of the eight latency components of the paper's Figure 1.
type Stage int

const (
	// StageSMBase is the time spent in the SM before accessing the L1
	// data cache (issue pipeline, coalescer). L1 hits attribute their
	// entire lifetime here, matching the paper's reading of the left-
	// hand buckets ("requests in these latency buckets were L1 hits").
	StageSMBase Stage = iota
	// StageL1ToICNT is the miss-queue wait between the L1 and the
	// interconnect — one of the paper's two dominant contributors.
	StageL1ToICNT
	// StageICNTToROP is the request-network traversal.
	StageICNTToROP
	// StageROPToL2Q is the ROP pipeline stage at the partition.
	StageROPToL2Q
	// StageL2QToDRAMQ covers the L2 queue and lookup.
	StageL2QToDRAMQ
	// StageDRAMQueue is DRAM(QtoSch): waiting to be selected by the
	// DRAM scheduler — the paper's arbitration contributor.
	StageDRAMQueue
	// StageDRAMAccess is DRAM(SchToA): activate/CAS/burst service.
	StageDRAMAccess
	// StageFetch2SM is the return path to the SM and writeback; for
	// requests served above DRAM it also absorbs the serving level's
	// access time (the last marked point onward).
	StageFetch2SM

	// NumStages is the number of stages.
	NumStages
)

var stageNames = [NumStages]string{
	"SMBase", "L1toICNT", "ICNTtoROP", "ROPtoL2Q",
	"L2QtoDRAMQ", "DRAM(QtoSch)", "DRAM(SchToA)", "Fetch2SM",
}

// String returns the paper's name for the stage.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// stageEndingAt is the Stage that ends at each stage-log point, an
// array because StageDurations reads it once per marked point of every
// tracked load.
var stageEndingAt = [mem.NumPoints]Stage{
	mem.PtL1Access:    StageSMBase,
	mem.PtICNTInject:  StageL1ToICNT,
	mem.PtROPArrive:   StageICNTToROP,
	mem.PtL2QArrive:   StageROPToL2Q,
	mem.PtDRAMQArrive: StageL2QToDRAMQ,
	mem.PtDRAMSched:   StageDRAMQueue,
	mem.PtDRAMDone:    StageDRAMAccess,
}

// StageDurations derives the eight stage durations from a completed
// request log. The rules follow the paper's (GPGPU-Sim's)
// instrumentation:
//
//   - the request lifetime starts at transaction creation in the LDST
//     unit (PtCreated; PtIssue when absent), matching GPGPU-Sim's
//     memory-fetch creation timestamp — instruction-level queueing
//     before creation belongs to Figure 2's exposure analysis, not the
//     Figure 1 request breakdown;
//   - requests that never left the SM (L1 hits and merges) attribute
//     their entire lifetime to SMBase;
//   - otherwise each consecutive pair of marked points attributes the
//     gap to the stage ending at the later point;
//   - the gap from the last marked point to ReturnSM is Fetch2SM.
//
// It returns ok=false for logs that are incomplete or non-monotonic.
func StageDurations(l *mem.StageLog) (dur [NumStages]sim.Cycle, ok bool) {
	if l == nil || !l.Complete() || !l.Monotonic() {
		return dur, false
	}
	start, okc := l.At(mem.PtCreated)
	if !okc {
		start = l.MustAt(mem.PtIssue)
	}
	ret := l.MustAt(mem.PtReturnSM)
	if _, left := l.At(mem.PtICNTInject); !left {
		dur[StageSMBase] = ret - start
		return dur, true
	}
	prev := start
	for p := mem.PtL1Access; p <= mem.PtDRAMDone; p++ {
		c, marked := l.At(p)
		if !marked {
			continue
		}
		dur[stageEndingAt[p]] += c - prev
		prev = c
	}
	dur[StageFetch2SM] += ret - prev
	return dur, true
}

// TotalOf sums the stage durations (equals the request's creation-to-
// return latency for a valid log — an invariant the tests verify).
func TotalOf(dur [NumStages]sim.Cycle) sim.Cycle {
	var t sim.Cycle
	for _, d := range dur {
		t += d
	}
	return t
}
