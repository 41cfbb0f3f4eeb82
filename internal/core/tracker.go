package core

import (
	"iter"
	"math"
	"unsafe"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// LoadRecord is one completed tracked load, reduced to what the analysis
// needs (the full request is not retained) and stored in 56 bytes: the
// issue cycle at full width, everything else as offsets and durations
// that RequestDone has checked fit. Read it through its accessors.
type LoadRecord struct {
	issueAt sim.Cycle
	stages  [NumStages]uint32
	// created and inst are the creation and return cycles as offsets
	// from issueAt.
	created, inst uint32
	kernel        int32
	sm, warp      uint8
	space         mem.Space
	flags         uint8 // mergedL1 | mergedL2
}

const (
	mergedL1 uint8 = 1 << iota
	mergedL2
)

// SM and Warp identify the issuing warp. Kernel is the device-wide
// launch sequence number of the issuing kernel (0 in single-kernel runs)
// — the key for per-kernel latency and exposure attribution when streams
// co-run.
func (r *LoadRecord) SM() int          { return int(r.sm) }
func (r *LoadRecord) Warp() int        { return int(r.warp) }
func (r *LoadRecord) Kernel() int      { return int(r.kernel) }
func (r *LoadRecord) Space() mem.Space { return r.space }
func (r *LoadRecord) MergedL1() bool   { return r.flags&mergedL1 != 0 }
func (r *LoadRecord) MergedL2() bool   { return r.flags&mergedL2 != 0 }

// IssueAt is instruction issue; CreatedAt is transaction creation in the
// LDST unit; ReturnAt is register writeback.
func (r *LoadRecord) IssueAt() sim.Cycle   { return r.issueAt }
func (r *LoadRecord) CreatedAt() sim.Cycle { return r.issueAt + sim.Cycle(r.created) }
func (r *LoadRecord) ReturnAt() sim.Cycle  { return r.issueAt + sim.Cycle(r.inst) }

// Total is the request lifetime (creation → return), the latency Figure 1
// buckets; InstTotal is the instruction-visible latency (issue → return),
// which Figure 2's exposure analysis covers.
func (r *LoadRecord) Total() sim.Cycle     { return sim.Cycle(r.inst - r.created) }
func (r *LoadRecord) InstTotal() sim.Cycle { return sim.Cycle(r.inst) }

// Stages returns the eight stage durations (they sum to Total).
func (r *LoadRecord) Stages() (dur [NumStages]sim.Cycle) {
	for s, d := range r.stages {
		dur[s] = sim.Cycle(d)
	}
	return dur
}

// Tracker implements the paper's instrumentation: it observes completed
// memory requests (mem.Observer) and folds each load, as it retires,
// into one cell per distinct latency. Every report — Breakdown,
// Exposure, KernelExposure, LoadSummary, KernelLoadSummary,
// MeanLoadLatency — reads those cells in place. A load's exposure comes
// from the two issue-cycle stamps its SM put on its StageLog, so the
// tracker keeps nothing per cycle and nothing per load: its memory grows
// with the distinct latencies a run sees, not with the run's length. A
// single Tracker instance is attached to a GPU for the lifetime of an
// experiment; Reset discards data between warmup and timed phases.
//
// A tracker made with KeepRecords also keeps every load's LoadRecord in
// delivery order — the order RequestDone was called, which `gpulat
// export` writes out row for row, so it is part of that command's bytes
// — read through All. Record storage is a list of chunks that are filled
// once and never re-copied: the first holds firstChunk records and each
// next one twice the last, up to maxChunk.
type Tracker struct {
	keep bool
	// chunks holds the records (KeepRecords); every chunk but the last
	// is full.
	chunks [][]LoadRecord
	// n counts the loads taken.
	n int

	// life and inst are the cells in first-seen order, found through
	// lifeAt and instAt. instAt holds a latency's newest inst cell; its
	// cells of other kernels chain back through instNext. Sums and
	// extremes read the cells in any order; only the summaries walk the
	// tables, for ascending latency.
	life           []lifeCell
	inst           []instCell
	instNext       []int32
	lifeAt, instAt latencyIndex

	badLogs uint64
}

// lifeCell sums the loads of one request lifetime (Total): Figure 1's
// input.
type lifeCell struct {
	total sim.Cycle
	count int
	stage [NumStages]sim.Cycle
}

// instCell sums one kernel's loads of one instruction-visible latency
// (InstTotal): the input of Figure 2 and of the latency summaries.
type instCell struct {
	inst            sim.Cycle
	kernel          int
	count           int
	exposed, hidden sim.Cycle
	// mostlyExposed counts the loads more than half exposed.
	mostlyExposed int
}

// anyKernel selects every kernel's inst cells.
const anyKernel = -1

// Record-chunk capacities, in records (56 bytes each): small enough
// that a tracked job with a handful of loads costs ~1 KB, large enough
// that chunk bookkeeping vanishes on a long run.
const (
	firstChunk = 16
	maxChunk   = 4096
)

// latencyIndex finds a latency's cell: at[v-lo] holds the cell's index
// + 1 (0: none yet). It spans the latencies seen so far and doubles when
// a load falls outside, 4 bytes a cycle of a run's latency spread (16,443
// for transpose, the widest catalog kernel at experiment scale on GF100),
// so a lookup is one load from a small table where a map pays a hash.
type latencyIndex struct {
	lo uint32
	at []int32
}

// slot returns the table entry for latency v, growing the table to
// cover it.
func (x *latencyIndex) slot(v uint32) *int32 {
	i := int(v) - int(x.lo)
	if i < 0 || i >= len(x.at) {
		x.grow(int(v))
		i = int(v) - int(x.lo)
	}
	return &x.at[i]
}

// grow widens the table to cover v: to 64 entries from v at first, then
// to at least twice its length, the spare room on the side v fell.
func (x *latencyIndex) grow(v int) {
	lo, n := v, 64
	if old := int(x.lo); len(x.at) != 0 {
		lo = min(v, old)
		hi := max(v+1, old+len(x.at))
		n = max(2*len(x.at), hi-lo)
		if v < old {
			lo = max(hi-n, 0)
		}
	}
	at := make([]int32, n)
	if len(x.at) != 0 {
		copy(at[int(x.lo)-lo:], x.at)
	}
	x.lo, x.at = uint32(lo), at
}

// TrackerOption configures NewTracker.
type TrackerOption func(*Tracker)

// KeepRecords makes a tracker keep every load's LoadRecord beside its
// cells, for All (`gpulat export`).
func KeepRecords(t *Tracker) { t.keep = true }

// NewTracker returns an empty tracker.
func NewTracker(opts ...TrackerOption) *Tracker {
	t := &Tracker{}
	for _, o := range opts {
		o(t)
	}
	return t
}

// RequestDone implements mem.Observer: it folds the load into its cells
// and, with KeepRecords, stores its record. A load whose fields do not
// fit the record — a latency of 2^32 cycles or more, a kernel ID beyond
// int32, an SM or warp beyond uint8 — or whose issue stamps claim more
// hidden cycles than its latency is counted in BadLogs, never folded.
func (t *Tracker) RequestDone(c sim.Cycle, r *mem.Request) {
	dur, ok := StageDurations(r.Log)
	inst, _ := r.Log.Total()
	// A valid log is monotonic, so the creation offset and every stage
	// duration are at most inst: bounding inst bounds them all.
	if !ok || inst > math.MaxUint32 || r.Log.ReturnStamp-r.Log.IssueStamp > uint64(inst) ||
		r.Kernel != int(int32(r.Kernel)) || uint(r.SM)|uint(r.Warp) > math.MaxUint8 {
		t.badLogs++
		return
	}
	issue := r.Log.MustAt(mem.PtIssue)
	created, okc := r.Log.At(mem.PtCreated)
	if !okc {
		created = issue
	}
	rec := LoadRecord{
		issueAt: issue,
		created: uint32(created - issue),
		inst:    uint32(inst),
		kernel:  int32(r.Kernel),
		sm:      uint8(r.SM),
		warp:    uint8(r.Warp),
		space:   r.Space,
	}
	for s, d := range dur {
		rec.stages[s] = uint32(d)
	}
	if r.Log.MergedAtL1 {
		rec.flags |= mergedL1
	}
	if r.Log.MergedAtL2 {
		rec.flags |= mergedL2
	}
	t.n++
	t.fold(&rec, sim.Cycle(r.Log.ReturnStamp-r.Log.IssueStamp))
	if !t.keep {
		return
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(t.chunks[last]), maxChunk)
		}
		t.chunks = append(t.chunks, make([]LoadRecord, 0, size))
		last++
	}
	t.chunks[last] = append(t.chunks[last], rec)
}

// fold adds one load to its life and inst cells; its SM issued in
// hidden of the load's InstTotal cycles.
func (t *Tracker) fold(r *LoadRecord, hidden sim.Cycle) {
	i := t.lifeAt.slot(r.inst - r.created)
	if *i == 0 {
		t.life = append(t.life, lifeCell{total: r.Total()})
		*i = int32(len(t.life))
	}
	lc := &t.life[*i-1]
	lc.count++
	for s, d := range r.stages {
		lc.stage[s] += sim.Cycle(d)
	}

	head := t.instAt.slot(r.inst)
	j := *head
	for j != 0 && t.inst[j-1].kernel != r.Kernel() {
		j = t.instNext[j-1]
	}
	if j == 0 {
		t.inst = append(t.inst, instCell{inst: r.InstTotal(), kernel: r.Kernel()})
		t.instNext = append(t.instNext, *head)
		j = int32(len(t.inst))
		*head = j
	}
	ic := &t.inst[j-1]
	exposed := ic.inst - hidden
	ic.count++
	ic.exposed += exposed
	ic.hidden += hidden
	if 2*exposed > ic.inst {
		ic.mostlyExposed++
	}
}

// IssueSlot implements gpu.IssueObserver and does nothing: a load's
// exposure comes from the issue-cycle stamps on its StageLog. It stays
// so that callers may still pass the tracker as a device's issue
// observer.
func (t *Tracker) IssueSlot(int, sim.Cycle, int) {}

// Len returns the number of loads the tracker took.
func (t *Tracker) Len() int { return t.n }

// All iterates over the kept load records in delivery order; it yields
// nothing unless the tracker was made with KeepRecords. The pointers are
// into the tracker's own storage: read through them, do not write, and
// do not keep them past Reset.
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
	var sum sim.Cycle
	for i := range t.inst {
		sum += t.inst[i].inst * sim.Cycle(t.inst[i].count)
	}
	return float64(sum) / float64(t.n)
}

// LoadSummary summarizes the instruction-visible latency (InstTotal) of
// every load: bit for bit what stats.Summarize returns over the loads'
// latencies.
func (t *Tracker) LoadSummary() stats.Summary { return t.KernelLoadSummary(anyKernel) }

// KernelLoadSummary is LoadSummary over one kernel's loads
// (LoadRecord.Kernel). It walks the kernel's inst cells through instAt,
// so in ascending latency, as stats.SummarizeRuns needs.
func (t *Tracker) KernelLoadSummary(kernel int) stats.Summary {
	runs := make([]stats.Run, 0, len(t.inst))
	for _, j := range t.instAt.at {
		for ; j != 0; j = t.instNext[j-1] {
			if c := &t.inst[j-1]; kernel == anyKernel || c.kernel == kernel {
				runs = append(runs, stats.Run{V: float64(c.inst), N: c.count})
			}
		}
	}
	return stats.SummarizeRuns(runs)
}

// BadLogs returns the number of requests dropped due to incomplete or
// inconsistent instrumentation (must be zero in a healthy simulation).
func (t *Tracker) BadLogs() uint64 { return t.badLogs }

// Footprint returns the bytes the tracker's cells, latency tables and
// kept records take: what Reset frees.
func (t *Tracker) Footprint() int {
	n := 4*(cap(t.lifeAt.at)+cap(t.instAt.at)+cap(t.instNext)) +
		cap(t.life)*int(unsafe.Sizeof(lifeCell{})) + cap(t.inst)*int(unsafe.Sizeof(instCell{}))
	for _, ch := range t.chunks {
		n += cap(ch) * int(unsafe.Sizeof(LoadRecord{}))
	}
	return n
}

// Reset discards all collected data (e.g. after a warmup phase).
func (t *Tracker) Reset() { *t = Tracker{keep: t.keep} }
