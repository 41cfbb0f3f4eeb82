package core

import (
	"iter"
	"math/bits"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// LoadRecord is one completed tracked load, reduced to what the analysis
// needs (the full request is not retained).
type LoadRecord struct {
	SM   int
	Warp int
	// Kernel is the device-wide launch sequence number of the issuing
	// kernel (0 in single-kernel runs) — the key for per-kernel latency
	// and exposure attribution when streams co-run.
	Kernel int
	Space  mem.Space
	// IssueAt is instruction issue; CreatedAt is transaction creation
	// in the LDST unit; ReturnAt is register writeback.
	IssueAt   sim.Cycle
	CreatedAt sim.Cycle
	ReturnAt  sim.Cycle
	// Total is the request lifetime (creation → return), the latency
	// Figure 1 buckets; InstTotal is the instruction-visible latency
	// (issue → return), which Figure 2's exposure analysis covers.
	Total     sim.Cycle
	InstTotal sim.Cycle
	Stages    [NumStages]sim.Cycle
	MergedL1  bool
	MergedL2  bool
}

// Tracker implements the paper's instrumentation: it observes completed
// memory requests (mem.Observer) and per-SM issue slots
// (gpu.IssueObserver) and feeds the breakdown and exposure analyses.
// A single Tracker instance is attached to a GPU for the lifetime of an
// experiment; Reset discards data between warmup and timed phases.
//
// Records are kept in delivery order — the order RequestDone was called,
// which `gpulat export` writes out row for row, so it is part of that
// command's bytes — and are read through Len and All. Storage is a list
// of chunks that are filled once and never re-copied: the first holds
// firstChunk records and each next one twice the last, up to maxChunk, so
// a 48-load chase allocates two small chunks and a run of any length
// pays for each record once.
type Tracker struct {
	// chunks holds the records; every chunk but the last is full.
	chunks [][]LoadRecord
	n      int
	// issued[sm] is a bitmap over cycles: bit set = the SM issued at
	// least one instruction that cycle.
	issued  [][]uint64
	maxSeen []sim.Cycle

	badLogs uint64
}

// Record-chunk capacities, in records (144 bytes each): small enough
// that a tracked job with a handful of loads costs ~2 KB, large enough
// that chunk bookkeeping vanishes on a long run.
const (
	firstChunk = 16
	maxChunk   = 4096
)

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// RequestDone implements mem.Observer.
func (t *Tracker) RequestDone(c sim.Cycle, r *mem.Request) {
	dur, ok := StageDurations(r.Log)
	if !ok {
		t.badLogs++
		return
	}
	instTotal, _ := r.Log.Total()
	issue := r.Log.MustAt(mem.PtIssue)
	created, okc := r.Log.At(mem.PtCreated)
	if !okc {
		created = issue
	}
	ret := r.Log.MustAt(mem.PtReturnSM)

	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(t.chunks[last]), maxChunk)
		}
		t.chunks = append(t.chunks, make([]LoadRecord, 0, size))
		last++
	}
	t.chunks[last] = append(t.chunks[last], LoadRecord{
		SM:        r.SM,
		Warp:      r.Warp,
		Kernel:    r.Kernel,
		Space:     r.Space,
		IssueAt:   issue,
		CreatedAt: created,
		ReturnAt:  ret,
		Total:     ret - created,
		InstTotal: instTotal,
		Stages:    dur,
		MergedL1:  r.Log.MergedAtL1,
		MergedL2:  r.Log.MergedAtL2,
	})
	t.n++
}

// IssueSlot implements gpu.IssueObserver.
func (t *Tracker) IssueSlot(smID int, c sim.Cycle, issued int) {
	for smID >= len(t.issued) {
		t.issued = append(t.issued, nil)
		t.maxSeen = append(t.maxSeen, 0)
	}
	if c > t.maxSeen[smID] {
		t.maxSeen[smID] = c
	}
	if issued <= 0 {
		return
	}
	word := int(c / 64)
	for word >= len(t.issued[smID]) {
		t.issued[smID] = append(t.issued[smID], 0)
	}
	t.issued[smID][word] |= 1 << (c % 64)
}

// Len returns the number of collected loads.
func (t *Tracker) Len() int { return t.n }

// All iterates over the collected loads in delivery order. The pointers
// are into the tracker's own storage: read through them, do not write,
// and do not keep them past Reset.
func (t *Tracker) All() iter.Seq[*LoadRecord] {
	return func(yield func(*LoadRecord) bool) {
		for _, ch := range t.chunks {
			for i := range ch {
				if !yield(&ch[i]) {
					return
				}
			}
		}
	}
}

// MeanLoadLatency returns the mean instruction-visible latency
// (InstTotal) of the collected loads, 0 when there are none.
func (t *Tracker) MeanLoadLatency() float64 {
	if t.n == 0 {
		return 0
	}
	var sum float64
	for r := range t.All() {
		sum += float64(r.InstTotal)
	}
	return sum / float64(t.n)
}

// BadLogs returns the number of requests dropped due to incomplete or
// inconsistent instrumentation (must be zero in a healthy simulation).
func (t *Tracker) BadLogs() uint64 { return t.badLogs }

// Reset discards all collected data (e.g. after a warmup phase).
func (t *Tracker) Reset() {
	t.chunks, t.n = nil, 0
	for i := range t.issued {
		t.issued[i] = nil
		t.maxSeen[i] = 0
	}
	t.badLogs = 0
}

// exposedCycles counts cycles in [from, to) during which SM smID issued
// no instruction.
func (t *Tracker) exposedCycles(smID int, from, to sim.Cycle) sim.Cycle {
	if smID < 0 || smID >= len(t.issued) || to <= from {
		return 0
	}
	bm := t.issued[smID]
	var hidden sim.Cycle
	// Count set bits (issued cycles) in [from, to); exposed = span-hidden.
	for w := int(from / 64); w <= int((to-1)/64) && w < len(bm); w++ {
		word := bm[w]
		lo := sim.Cycle(w) * 64
		// Mask off bits outside [from, to).
		if from > lo {
			word &^= (1 << (from - lo)) - 1
		}
		hiBit := lo + 64
		if to < hiBit {
			word &= (1 << (to - lo)) - 1
		}
		hidden += sim.Cycle(bits.OnesCount64(word))
	}
	return (to - from) - hidden
}
