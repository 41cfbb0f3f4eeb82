package core

import (
	"iter"
	"math"
	"math/bits"
	"unsafe"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
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
// pays for each record once. The issue bitmaps are fixed-size chunks,
// each written in place (see IssueSlot), so nothing the tracker keeps
// is ever re-copied.
type Tracker struct {
	// chunks holds the records; every chunk but the last is full.
	chunks [][]LoadRecord
	n      int
	// issued[sm] is a directory of bitmap chunks over cycles: bit set =
	// the SM issued at least one instruction that cycle; a nil chunk is
	// a span in which it issued nothing.
	issued [][]*issueChunk

	badLogs uint64
}

// Record-chunk capacities, in records (56 bytes each): small enough
// that a tracked job with a handful of loads costs ~1 KB, large enough
// that chunk bookkeeping vanishes on a long run.
const (
	firstChunk = 16
	maxChunk   = 4096
)

// chunkWords sizes an issueChunk, one fixed span of an SM's issue
// bitmap: 2^16 cycles in 8 KiB.
const chunkWords = 1024

type issueChunk [chunkWords]uint64

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// RequestDone implements mem.Observer. A load whose fields do not fit
// the record — a latency of 2^32 cycles or more, a kernel ID beyond
// int32, an SM or warp beyond uint8 — is counted in BadLogs, never
// stored truncated.
func (t *Tracker) RequestDone(c sim.Cycle, r *mem.Request) {
	dur, ok := StageDurations(r.Log)
	inst, _ := r.Log.Total()
	// A valid log is monotonic, so the creation offset and every stage
	// duration are at most inst: bounding inst bounds them all.
	if !ok || inst > math.MaxUint32 || r.Kernel != int(int32(r.Kernel)) || uint(r.SM)|uint(r.Warp) > math.MaxUint8 {
		t.badLogs++
		return
	}
	issue := r.Log.MustAt(mem.PtIssue)
	created, okc := r.Log.At(mem.PtCreated)
	if !okc {
		created = issue
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
	t.chunks[last] = append(t.chunks[last], rec)
	t.n++
}

// IssueSlot implements gpu.IssueObserver. The first call for an SM
// registers it (from then on it reads as exposed wherever it did not
// issue); a chunk of its bitmap is allocated on the first issue inside
// the chunk's span and written in place from then on, so the bitmap
// costs one bit per cycle of the spans the SM issued in, each allocated
// once, plus one directory pointer per span.
func (t *Tracker) IssueSlot(smID int, c sim.Cycle, issued int) {
	for smID >= len(t.issued) {
		t.issued = append(t.issued, nil)
	}
	if issued <= 0 {
		return
	}
	dir := t.issued[smID]
	k := int(c / (64 * chunkWords))
	if k >= len(dir) {
		dir = append(dir, make([]*issueChunk, k+1-len(dir))...)
		t.issued[smID] = dir
	}
	if dir[k] == nil {
		dir[k] = new(issueChunk)
	}
	dir[k][c/64%chunkWords] |= 1 << (c % 64)
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
func (t *Tracker) MeanLoadLatency() float64 { return t.Aggregate().MeanLoadLatency() }

// BadLogs returns the number of requests dropped due to incomplete or
// inconsistent instrumentation (must be zero in a healthy simulation).
func (t *Tracker) BadLogs() uint64 { return t.badLogs }

// Footprint returns the bytes the tracker's record chunks and issue
// bitmaps (chunks and directories) take: what Reset frees.
func (t *Tracker) Footprint() int {
	n := 0
	for _, ch := range t.chunks {
		n += cap(ch) * int(unsafe.Sizeof(LoadRecord{}))
	}
	for _, dir := range t.issued {
		n += cap(dir) * int(unsafe.Sizeof((*issueChunk)(nil)))
		for _, ch := range dir {
			if ch != nil {
				n += int(unsafe.Sizeof(*ch))
			}
		}
	}
	return n
}

// Reset discards all collected data (e.g. after a warmup phase).
func (t *Tracker) Reset() {
	t.chunks, t.n = nil, 0
	for i := range t.issued {
		t.issued[i] = nil
	}
	t.badLogs = 0
}

// exposedCycles counts cycles in [from, to) during which SM smID issued
// no instruction: a span whose chunk was never allocated is all exposed,
// so an SM registered by IssueSlot that never issued reads as fully
// exposed. An SM IssueSlot never saw reads 0.
func (t *Tracker) exposedCycles(smID int, from, to sim.Cycle) sim.Cycle {
	if smID < 0 || smID >= len(t.issued) || to <= from {
		return 0
	}
	dir := t.issued[smID]
	first, last := from/64, (to-1)/64
	// Count the issued cycles of whole words first..last, a chunk's
	// slice at a time, then drop those before from and from to on.
	hidden := 0
	for k := first / chunkWords; k <= last/chunkWords && k < sim.Cycle(len(dir)); k++ {
		if ch := dir[k]; ch != nil {
			base := k * chunkWords
			for _, w := range ch[max(first, base)-base : min(last, base+chunkWords-1)-base+1] {
				hidden += bits.OnesCount64(w)
			}
		}
	}
	hidden -= bits.OnesCount64(issueWord(dir, first) & (1<<(from%64) - 1))
	if to%64 != 0 {
		hidden -= bits.OnesCount64(issueWord(dir, last) &^ (1<<(to%64) - 1))
	}
	return (to - from) - sim.Cycle(hidden)
}

// issueWord returns word w of an issue bitmap, 0 in an unallocated chunk.
func issueWord(dir []*issueChunk, w sim.Cycle) uint64 {
	if k := w / chunkWords; k < sim.Cycle(len(dir)) && dir[k] != nil {
		return dir[k][w%chunkWords]
	}
	return 0
}
