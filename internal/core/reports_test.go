package core

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// The record walk below is how the reports were built before the
// tracker folded loads into cells: straight from the tracker's records
// and, for exposure, a per-cycle issue bitmap of each SM. It is kept as
// the slow oracle the cells, folded online from issue-cycle stamps, are
// checked against.

// issueBitmap is a test-only gpu.IssueObserver that keeps, per SM, one
// bit per cycle: set when the SM issued at least one instruction. Each
// SM's bitmap is a directory of fixed-size chunks; a nil chunk is a span
// in which it issued nothing.
type issueBitmap struct {
	issued [][]*issueChunk
}

// chunkWords sizes an issueChunk: 2^16 cycles in 8 KiB.
const chunkWords = 1024

type issueChunk [chunkWords]uint64

// IssueSlot implements gpu.IssueObserver. The first call for an SM
// registers it (from then on it reads as exposed wherever it did not
// issue).
func (b *issueBitmap) IssueSlot(smID int, c sim.Cycle, issued int) {
	for smID >= len(b.issued) {
		b.issued = append(b.issued, nil)
	}
	if issued <= 0 {
		return
	}
	dir := b.issued[smID]
	k := int(c / (64 * chunkWords))
	if k >= len(dir) {
		dir = append(dir, make([]*issueChunk, k+1-len(dir))...)
		b.issued[smID] = dir
	}
	if dir[k] == nil {
		dir[k] = new(issueChunk)
	}
	dir[k][c/64%chunkWords] |= 1 << (c % 64)
}

// exposedCycles counts cycles in [from, to) during which SM smID issued
// no instruction: a span whose chunk was never allocated is all exposed,
// so an SM registered by IssueSlot that never issued reads as fully
// exposed. An SM IssueSlot never saw reads 0.
func (b *issueBitmap) exposedCycles(smID int, from, to sim.Cycle) sim.Cycle {
	if smID < 0 || smID >= len(b.issued) || to <= from {
		return 0
	}
	dir := b.issued[smID]
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

func walkBreakdown(t *Tracker, workload, arch string, numBuckets int) *BreakdownReport {
	rep := &BreakdownReport{Workload: workload, Arch: arch}
	if t.n == 0 || numBuckets <= 0 {
		return rep
	}
	lo, hi := sim.Never, sim.Cycle(0)
	for r := range t.All() {
		lo, hi = min(lo, r.Total()), max(hi, r.Total())
	}
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	rep.Buckets = make([]BreakdownBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for r := range t.All() {
		idx := int((r.Total() - lo) / width)
		if idx >= numBuckets {
			idx = numBuckets - 1
		}
		b := &rep.Buckets[idx]
		b.Count++
		for s, d := range r.Stages() {
			b.StageSum[s] += d
			rep.TotalStage[s] += d
		}
		rep.Requests++
	}
	return rep
}

// walkExposure is the Figure 2 report over the loads keep accepts (nil
// keeps every load), their exposure read from the issue bitmap b.
func walkExposure(t *Tracker, b *issueBitmap, workload, arch string, numBuckets int, keep func(*LoadRecord) bool) *ExposureReport {
	rep := &ExposureReport{Workload: workload, Arch: arch}
	if keep == nil {
		keep = func(*LoadRecord) bool { return true }
	}
	lo, hi, kept := sim.Never, sim.Cycle(0), 0
	for r := range t.All() {
		if keep(r) {
			lo, hi = min(lo, r.InstTotal()), max(hi, r.InstTotal())
			kept++
		}
	}
	if kept == 0 || numBuckets <= 0 {
		return rep
	}
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	rep.Buckets = make([]ExposureBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for r := range t.All() {
		if !keep(r) {
			continue
		}
		inst := r.InstTotal()
		exposed := b.exposedCycles(r.SM(), r.IssueAt(), r.ReturnAt())
		hidden := inst - exposed
		idx := int((inst - lo) / width)
		if idx >= numBuckets {
			idx = numBuckets - 1
		}
		b := &rep.Buckets[idx]
		b.Count++
		b.Exposed += exposed
		b.Hidden += hidden
		rep.TotalExposed += exposed
		rep.TotalHidden += hidden
		rep.Requests++
		if 2*exposed > inst {
			rep.LoadsMostlyExposed++
		}
	}
	return rep
}

// walkSummary is stats.Summarize over the instruction-visible latency
// of the loads keep accepts, in delivery order.
func walkSummary(t *Tracker, keep func(*LoadRecord) bool) stats.Summary {
	var xs []float64
	for r := range t.All() {
		if keep(r) {
			xs = append(xs, float64(r.InstTotal()))
		}
	}
	return stats.Summarize(xs)
}

func walkMeanLoadLatency(t *Tracker) float64 {
	if t.n == 0 {
		return 0
	}
	var sum float64
	for r := range t.All() {
		sum += float64(r.InstTotal())
	}
	return sum / float64(t.n)
}

// testResult is a memoized run: its result, whose tracker keeps every
// load record, and the issue bitmap its device fed.
type testResult struct {
	*DynamicResult
	issued *issueBitmap
}

// testRuns memoizes, per engine, one run on GF106 of every catalog
// kernel at test scale and of BFS at the runner's test scale (512
// vertices), so the tests that read whole runs share the simulations.
var testRuns = map[string]*testResult{}

var bothEngines = []sim.Engine{sim.EngineTick, sim.EngineEvent}

func testRun(t *testing.T, name string, engine sim.Engine) *testResult {
	t.Helper()
	key := name + "/" + engine.String()
	if res, ok := testRuns[key]; ok {
		return res
	}
	cfg := config.GF106()
	cfg.Engine = engine
	tr, issued := NewTracker(KeepRecords), &issueBitmap{}
	g := gpu.NewWithObservers(cfg, tr, issued)
	var cycles sim.Cycle
	launches := 1
	var err error
	if name == "bfs" {
		var mk *kernels.MultiKernel
		mk, err = kernels.BFS(kernels.BFSConfig{Graph: kernels.GenScaleFree(1<<9, 4, 3), Source: 0, BlockDim: 128})
		if err == nil {
			cycles, launches, err = kernels.RunMulti(g, mk)
		}
	} else {
		var wl *kernels.Workload
		wl, err = kernels.NewByName(name, kernels.ScaleTest, 3)
		if err == nil {
			cycles, err = kernels.Run(g, wl)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	res := &testResult{finish(cfg, name, g, tr, cycles, launches), issued}
	testRuns[key] = res
	return res
}

// rendered is a report's table, CSV and chart, as the fig commands
// print them.
func rendered(r interface {
	Render(io.Writer)
	RenderCSV(io.Writer)
	RenderChart(io.Writer, int)
}, height int) string {
	var b strings.Builder
	r.Render(&b)
	r.RenderCSV(&b)
	r.RenderChart(&b, height)
	return b.String()
}

// TestReportsMatchRecordWalkProperty: over every catalog kernel and a
// BFS at test scale, under both engines, with random bucket counts and
// chart heights, every report the tracker builds from the
// cells it folded as loads retired equals the record walk's over the
// per-cycle issue bitmap field for field and renders the same bytes in
// all three views, whole-run and per kernel, and the load summaries and
// mean are bitwise equal. Every total a job metric reads (TotalPct,
// OverallExposedPct, MostlyExposedPct) is bit-equal to a 1-bucket
// report's, so no bucket count changes a job's metrics.
func TestReportsMatchRecordWalkProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 41))
	for _, name := range append(kernels.CatalogNames(), "bfs") {
		for _, engine := range bothEngines {
			res := testRun(t, name, engine)
			tr := res.Tracker
			n, height := 1+rng.IntN(64), 1+rng.IntN(30)
			at := fmt.Sprintf("%s/%v buckets=%d height=%d", name, engine, n, height)
			same := func(what string, got, want interface {
				Render(io.Writer)
				RenderCSV(io.Writer)
				RenderChart(io.Writer, int)
			}) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s from the cells differs from the record walk:\ngot  %+v\nwant %+v", at, what, got, want)
				}
				if g, w := rendered(got, height), rendered(want, height); g != w {
					t.Fatalf("%s: %s renders differ:\n--- cells ---\n%s--- record walk ---\n%s", at, what, g, w)
				}
			}
			sameTotals := func(what string, got, one *ExposureReport) {
				t.Helper()
				for _, v := range [][2]float64{
					{got.OverallExposedPct(), one.OverallExposedPct()},
					{got.MostlyExposedPct(), one.MostlyExposedPct()},
				} {
					if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
						t.Fatalf("%s: %s totals %v differ from a 1-bucket report's %v", at, what, v[0], v[1])
					}
				}
			}
			bd := tr.Breakdown(name, "GF106", n)
			same("Breakdown", bd, walkBreakdown(tr, name, "GF106", n))
			for s, one := Stage(0), tr.Breakdown(name, "GF106", 1); s < NumStages; s++ {
				if g, w := bd.TotalPct(s), one.TotalPct(s); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: Breakdown TotalPct(%v) %v differs from a 1-bucket report's %v", at, s, g, w)
				}
			}
			ex := tr.Exposure(name, "GF106", n)
			same("Exposure", ex, walkExposure(tr, res.issued, name, "GF106", n, nil))
			sameTotals("Exposure", ex, tr.Exposure(name, "GF106", 1))
			all := func(*LoadRecord) bool { return true }
			if g, w := tr.LoadSummary(), walkSummary(tr, all); summaryBits(g) != summaryBits(w) {
				t.Fatalf("%s: LoadSummary %+v, record walk %+v", at, g, w)
			}
			if g, w := tr.MeanLoadLatency(), walkMeanLoadLatency(tr); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: MeanLoadLatency %v, record walk %v", at, g, w)
			}
			var ids []int
			for r := range tr.All() {
				if !slices.Contains(ids, r.Kernel()) {
					ids = append(ids, r.Kernel())
				}
			}
			for _, k := range ids {
				of := func(r *LoadRecord) bool { return r.Kernel() == k }
				what := fmt.Sprintf("KernelExposure(%d)", k)
				kx := tr.KernelExposure(name, "GF106", n, k)
				same(what, kx, walkExposure(tr, res.issued, name, "GF106", n, of))
				sameTotals(what, kx, tr.KernelExposure(name, "GF106", 1, k))
				if g, w := tr.KernelLoadSummary(k), walkSummary(tr, of); summaryBits(g) != summaryBits(w) {
					t.Fatalf("%s: KernelLoadSummary(%d) %+v, record walk %+v", at, k, g, w)
				}
			}
			if name == "bfs" && len(ids) < 2 {
				t.Fatalf("%s: BFS ran %d kernel launches; the per-kernel reports need several", at, len(ids))
			}
		}
	}
}

// summaryBits is s with every float as its bit pattern.
func summaryBits(s stats.Summary) [9]uint64 {
	return [9]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.Mean), math.Float64bits(s.P50), math.Float64bits(s.P90),
		math.Float64bits(s.P99), math.Float64bits(s.StdDev), math.Float64bits(s.Sum)}
}
