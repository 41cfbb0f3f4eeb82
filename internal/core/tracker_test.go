package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// flat copies the tracker's records into one slice: the reference shape
// the storage tests and the reference reports below work from.
func flat(tr *Tracker) []LoadRecord {
	var out []LoadRecord
	for r := range tr.All() {
		out = append(out, *r)
	}
	return out
}

// wide is a load record at full width: every value an accessor returns.
type wide struct {
	SM, Warp, Kernel                               int
	Space                                          mem.Space
	IssueAt, CreatedAt, ReturnAt, Total, InstTotal sim.Cycle
	Stages                                         [NumStages]sim.Cycle
	MergedL1, MergedL2                             bool
}

// widen reads every field of recs through the accessors.
func widen(recs []LoadRecord) []wide {
	out := make([]wide, len(recs))
	for i := range recs {
		r := &recs[i]
		out[i] = wide{r.SM(), r.Warp(), r.Kernel(), r.Space(),
			r.IssueAt(), r.CreatedAt(), r.ReturnAt(), r.Total(), r.InstTotal(),
			r.Stages(), r.MergedL1(), r.MergedL2()}
	}
	return out
}

// fillDistinct delivers n loads that differ in every field the tracker
// derives, and returns the records it must now hold, in order.
func fillDistinct(tr *Tracker, n int) []wide {
	var want []wide
	for i := 0; i < n; i++ {
		issue := sim.Cycle(10 * i)
		ret := issue + 40 + sim.Cycle(i%7)
		l := &mem.StageLog{MergedAtL2: i%3 == 0}
		l.Mark(mem.PtIssue, issue)
		l.Mark(mem.PtCreated, issue+2)
		l.Mark(mem.PtL1Access, issue+5)
		l.Mark(mem.PtICNTInject, issue+9)
		l.Mark(mem.PtReturnSM, ret)
		tr.RequestDone(ret, &mem.Request{SM: i % 5, Warp: i % 48, Kernel: i % 2, Log: l})
		rec := wide{SM: i % 5, Warp: i % 48, Kernel: i % 2,
			IssueAt: issue, CreatedAt: issue + 2, ReturnAt: ret,
			Total: ret - issue - 2, InstTotal: ret - issue, MergedL2: i%3 == 0}
		rec.Stages[StageSMBase] = 3
		rec.Stages[StageL1ToICNT] = 4
		rec.Stages[StageFetch2SM] = ret - issue - 9
		want = append(want, rec)
	}
	return want
}

// TestTrackerStorageOrder: whatever the count — none, one, exactly a
// chunk, one over, several chunks and a bit — the records come back
// complete and in delivery order, and Reset leaves a tracker that fills
// again the same way.
func TestTrackerStorageOrder(t *testing.T) {
	threeChunks := firstChunk + 2*firstChunk + 4*firstChunk
	for _, n := range []int{0, 1, firstChunk, firstChunk + 1, threeChunks + 7, 3*maxChunk + 5} {
		tr := NewTracker(KeepRecords)
		for round := 0; round < 2; round++ {
			want := fillDistinct(tr, n)
			if tr.Len() != n {
				t.Fatalf("n=%d round %d: Len = %d", n, round, tr.Len())
			}
			if got := widen(flat(tr)); !slices.Equal(got, want) {
				t.Fatalf("n=%d round %d: records differ from what was delivered (got %d)", n, round, len(got))
			}
			tr.Reset()
			if tr.Len() != 0 || len(flat(tr)) != 0 {
				t.Fatalf("n=%d round %d: records survived Reset", n, round)
			}
		}
	}
}

// TestTrackerAllStopsEarly: breaking out of the iteration is honoured
// mid-chunk and across a chunk boundary.
func TestTrackerAllStopsEarly(t *testing.T) {
	tr := NewTracker(KeepRecords)
	fillDistinct(tr, 3*firstChunk)
	for _, stopAt := range []int{1, firstChunk, firstChunk + 3} {
		seen := 0
		for range tr.All() {
			if seen++; seen == stopAt {
				break
			}
		}
		if seen != stopAt {
			t.Fatalf("iteration ran %d records past a break at %d", seen-stopAt, stopAt)
		}
	}
}

func TestMeanLoadLatency(t *testing.T) {
	tr := NewTracker()
	if got := tr.MeanLoadLatency(); got != 0 {
		t.Fatalf("mean over no loads = %v, want 0", got)
	}
	var hit [NumStages]sim.Cycle
	feed(tr, 0, 0, 10, hit)
	feed(tr, 0, 5, 35, hit)
	if got := tr.MeanLoadLatency(); got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
}

// TestKernelExposureEqualsExposureOfKept: reporting one kernel's loads
// is the same as never having tracked the other kernel's — given the
// same issue activity, which the per-kernel view deliberately keeps.
func TestKernelExposureEqualsExposureOfKept(t *testing.T) {
	all, only := NewTracker(), NewTracker()
	// SM smID issues in cycle c unless (c/7 + smID) % 3 == 0.
	hidden := func(smID int, from, to sim.Cycle) (n sim.Cycle) {
		for c := from; c < to; c++ {
			if (c/7+sim.Cycle(smID))%3 != 0 {
				n++
			}
		}
		return n
	}
	var hit [NumStages]sim.Cycle
	for i := 0; i < 5*firstChunk; i++ {
		smID, kernel, issue := i%2, i/2%2, sim.Cycle(13*i)
		ret := issue + 20 + sim.Cycle(i*i%400)
		h := hidden(smID, issue, ret)
		feedKernel(all, smID, kernel, issue, ret, h, hit)
		if kernel == 1 {
			feedKernel(only, smID, kernel, issue, ret, h, hit)
		}
	}
	got, want := all.KernelExposure("w", "a", 8, 1), only.Exposure("w", "a", 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KernelExposure != Exposure over the kernel's loads alone:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Requests == 0 || got.TotalExposed == 0 || got.TotalHidden == 0 {
		t.Fatalf("degenerate report: %+v", got)
	}
	if g, w := all.KernelLoadSummary(1), only.LoadSummary(); summaryBits(g) != summaryBits(w) {
		t.Fatalf("KernelLoadSummary %+v != LoadSummary over the kernel's loads alone %+v", g, w)
	}
}

// keepingObserver forwards every completed load to a Tracker and keeps,
// beside it, the full-width values of the load's StageLog.
type keepingObserver struct {
	tr   *Tracker
	kept []wide
}

func (o *keepingObserver) RequestDone(c sim.Cycle, r *mem.Request) {
	o.tr.RequestDone(c, r)
	dur, ok := StageDurations(r.Log)
	if !ok {
		return
	}
	issue, ret := r.Log.MustAt(mem.PtIssue), r.Log.MustAt(mem.PtReturnSM)
	created, okc := r.Log.At(mem.PtCreated)
	if !okc {
		created = issue
	}
	inst, _ := r.Log.Total()
	o.kept = append(o.kept, wide{r.SM, r.Warp, r.Kernel, r.Space,
		issue, created, ret, ret - created, inst,
		dur, r.Log.MergedAtL1, r.Log.MergedAtL2})
}

// TestCompactRecordsMatchStageLogs: under both engines, for every
// catalog kernel, a BFS and a co-run pair, the compact records read back
// through their accessors equal, record by record in delivery order, the
// full-width values taken from each load's StageLog.
func TestCompactRecordsMatchStageLogs(t *testing.T) {
	type run func(g *gpu.GPU) error
	runs := map[string]run{}
	for _, name := range kernels.CatalogNames() {
		runs[name] = func(g *gpu.GPU) error {
			wl, err := kernels.NewByName(name, kernels.ScaleTest, 7)
			if err == nil {
				_, err = kernels.Run(g, wl)
			}
			return err
		}
	}
	runs["bfs"] = func(g *gpu.GPU) error {
		mk, err := kernels.BFS(kernels.BFSConfig{Graph: kernels.GenScaleFree(1<<9, 4, 42), Source: 0, BlockDim: 128})
		if err == nil {
			_, _, err = kernels.RunMulti(g, mk)
		}
		return err
	}
	runs["gather+copy"] = func(g *gpu.GPU) error {
		pair, err := kernels.CoRun("gather", "copy", kernels.ScaleTest, 7, 8)
		if err != nil {
			return err
		}
		pair.A.Setup(g.Memory)
		pair.B.Setup(g.Memory)
		if _, err = g.Enqueue("A", pair.A.Kernel); err == nil {
			_, err = g.Enqueue("B", pair.B.Kernel)
		}
		if err == nil {
			_, err = g.Run()
		}
		return err
	}
	merged, records := [2]int{}, 0
	for name, do := range runs {
		for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
			cfg := config.GF106()
			cfg.Engine = engine
			obs := &keepingObserver{tr: NewTracker(KeepRecords)}
			if err := do(gpu.NewWithObservers(cfg, obs, nil)); err != nil {
				t.Fatalf("%s (%s): %v", name, engine, err)
			}
			got := widen(flat(obs.tr))
			if obs.tr.BadLogs() != 0 || len(got) != len(obs.kept) || len(got) == 0 {
				t.Fatalf("%s (%s): %d records, %d bad logs, %d loads delivered", name, engine, len(got), obs.tr.BadLogs(), len(obs.kept))
			}
			records += len(got)
			for i := range got {
				if got[i] != obs.kept[i] {
					t.Fatalf("%s (%s): record %d reads back as\n%+v\nwant\n%+v", name, engine, i, got[i], obs.kept[i])
				}
				if got[i].MergedL1 {
					merged[0]++
				}
				if got[i].MergedL2 {
					merged[1]++
				}
			}
		}
	}
	if merged[0] == 0 || merged[1] == 0 {
		t.Fatalf("merged at L1/L2: %v loads; the runs must exercise both flags", merged)
	}
	t.Logf("%d runs, %d records, %d merged at L1, %d at L2", 2*len(runs), records, merged[0], merged[1])
}

// TestRequestDoneRejectsOverflow: a load that does not fit the compact
// record is a bad log, never a stored, wrapped value; the widest load
// that fits is stored exactly. So is a load whose issue stamps claim
// more hidden cycles than its latency: it cannot be folded.
func TestRequestDoneRejectsOverflow(t *testing.T) {
	load := func(issue, ret sim.Cycle, kernel int) *mem.Request {
		l := &mem.StageLog{}
		l.Mark(mem.PtIssue, issue)
		l.Mark(mem.PtReturnSM, ret)
		return &mem.Request{Kernel: kernel, Log: l}
	}
	const issue = sim.Cycle(5)
	for _, tc := range []struct {
		name string
		req  *mem.Request
	}{
		{"latency 2^32", load(issue, issue+1<<32, 0)},
		{"kernel 2^31", load(issue, issue+10, 1<<31)},
		{"warp 256", &mem.Request{Warp: 256, Log: load(issue, issue+10, 0).Log}},
		{"11 hidden cycles of 10", func() *mem.Request {
			r := load(issue, issue+10, 0)
			r.Log.IssueStamp, r.Log.ReturnStamp = 7, 18
			return r
		}()},
	} {
		tr := NewTracker(KeepRecords)
		tr.RequestDone(0, tc.req)
		if tr.Len() != 0 || tr.BadLogs() != 1 {
			t.Fatalf("%s: %d records stored (first %+v), %d bad logs; want none stored, one bad log",
				tc.name, tr.Len(), widen(flat(tr)), tr.BadLogs())
		}
	}
	tr := NewTracker(KeepRecords)
	tr.RequestDone(0, load(issue, issue+math.MaxUint32, math.MinInt32))
	if got := widen(flat(tr)); tr.BadLogs() != 0 || len(got) != 1 ||
		got[0].InstTotal != math.MaxUint32 || got[0].Total != math.MaxUint32 ||
		got[0].ReturnAt != issue+math.MaxUint32 || got[0].Kernel != math.MinInt32 {
		t.Fatalf("widest load that fits: %+v, %d bad logs", got, tr.BadLogs())
	}
}

// TestExposedCyclesMatchesNaive: the exposure oracle's issue bitmap
// (reports_test.go) is right. Seeded random issue patterns on three
// SMs over several bitmap chunks, with silent gaps longer than a chunk
// (chunks that are never allocated), and query spans that cross chunk
// boundaries, start before the first issue, run past the last chunk or
// fall on an SM that never issued — every answer equals a per-cycle map.
func TestExposedCyclesMatchesNaive(t *testing.T) {
	const span = 64 * chunkWords
	rng := rand.New(rand.NewPCG(35, 1))
	tr := &issueBitmap{}
	end := sim.Cycle(7 * span)
	var issued [4][]bool // per SM, per cycle
	for sm := range issued {
		issued[sm] = make([]bool, end+4*span)
	}
	for sm := 0; sm < 3; sm++ {
		for c := sim.Cycle(span / 3); c < end; c++ {
			// SM 1 is silent through chunks 2 and 3, SM 2 through 1-4.
			silent := (sm == 1 && c/span >= 2 && c/span < 4) || (sm == 2 && c/span >= 1 && c/span < 5)
			if !silent && rng.IntN(3) == 0 {
				tr.IssueSlot(sm, c, 1)
				issued[sm][c] = true
			} else if c%97 == 0 {
				tr.IssueSlot(sm, c, 0)
			}
		}
	}
	tr.IssueSlot(3, 100, 0) // SM 3 is seen but never issues
	if tr.issued[1][2] != nil || tr.issued[2][3] != nil || len(tr.issued[3]) != 0 {
		t.Fatal("a chunk was allocated for a span with no issue")
	}
	naive := func(sm int, from, to sim.Cycle) (n sim.Cycle) {
		for _, was := range issued[sm][from:to] {
			if !was {
				n++
			}
		}
		return n
	}
	var spans [][2]sim.Cycle
	for k := sim.Cycle(1); k < 8; k++ {
		spans = append(spans, [2]sim.Cycle{k*span - 70, k*span + 70}, [2]sim.Cycle{k*span - 1, k*span + 1})
	}
	spans = append(spans, [2]sim.Cycle{0, span / 2}, [2]sim.Cycle{0, 10}, [2]sim.Cycle{end - 5, end + 3*span},
		[2]sim.Cycle{end + span, end + span + 9}, [2]sim.Cycle{span / 2, 6*span + 11}, [2]sim.Cycle{0, end + 100})
	for i := 0; i < 200; i++ {
		from := sim.Cycle(rng.IntN(int(end + span)))
		spans = append(spans, [2]sim.Cycle{from, from + sim.Cycle(rng.IntN(3*span))})
	}
	for sm := 0; sm < 4; sm++ {
		for _, s := range spans {
			if got, want := tr.exposedCycles(sm, s[0], s[1]), naive(sm, s[0], s[1]); got != want {
				t.Fatalf("SM %d [%d,%d): exposed %d, per-cycle map says %d", sm, s[0], s[1], got, want)
			}
		}
	}
}

// chaseTracker runs a single-thread DRAM pointer chase of accesses
// loads on GF100 (2 MiB ring, 512-byte stride) under engine and returns
// its fold-only tracker.
func chaseTracker(t *testing.T, engine sim.Engine, accesses int) *Tracker {
	t.Helper()
	wl, err := kernels.PChase(kernels.PChaseConfig{Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: accesses})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.GF100()
	cfg.Engine = engine
	res, err := RunDynamic(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracker.Len() != accesses || res.Tracker.BadLogs() != 0 {
		t.Fatalf("%d-access chase: %d loads tracked, %d bad logs", accesses, res.Tracker.Len(), res.Tracker.BadLogs())
	}
	return res.Tracker
}

// TestTrackerMemoryIndependentOfRunLength: a fold-only tracker keeps one
// cell per distinct latency, so a DRAM chase ten times as long leaves it
// exactly as large; nothing it holds grows with loads or cycles.
func TestTrackerMemoryIndependentOfRunLength(t *testing.T) {
	short, long := chaseTracker(t, sim.EngineEvent, 2000), chaseTracker(t, sim.EngineEvent, 20000)
	if s, l := short.Footprint(), long.Footprint(); s != l || s == 0 {
		t.Fatalf("tracker footprint after a 2,000-access chase %d B, after 20,000 %d B; want equal", s, l)
	} else {
		t.Logf("tracker footprint %d B after 2,000 and after 20,000 accesses", s)
	}
}

// reportSink keeps each report a call builds on the heap.
var reportSink any

// TestReportsCopyNoCells: a report reads the tracker's cells in place,
// so what Breakdown, Exposure and MeanLoadLatency allocate per call is
// the report itself: the same bytes for a tracker of 64 distinct
// latencies as for one of 8,192.
func TestReportsCopyNoCells(t *testing.T) {
	trackers := map[int]*Tracker{}
	for _, n := range []int{64, 8192} {
		tr := NewTracker()
		for i := range n {
			feedKernel(tr, i%4, i%2, 0, sim.Cycle(100+i), sim.Cycle(i/2), [NumStages]sim.Cycle{})
		}
		trackers[n] = tr
	}
	for _, c := range []struct {
		name string
		call func(*Tracker)
	}{
		{"Breakdown(48)", func(tr *Tracker) { reportSink = tr.Breakdown("w", "a", 48) }},
		{"Exposure(24)", func(tr *Tracker) { reportSink = tr.Exposure("w", "a", 24) }},
		{"MeanLoadLatency()", func(tr *Tracker) { reportSink = tr.MeanLoadLatency() }},
	} {
		if s, l := bytesPerCall(trackers[64], c.call), bytesPerCall(trackers[8192], c.call); s != l {
			t.Errorf("%s allocates %d B per call over 64 distinct latencies, %d B over 8,192: it copies the cells", c.name, s, l)
		}
	}
}

// bytesPerCall is the heap bytes one call allocates: the least of three
// measurements, so a stray allocation elsewhere cannot raise it.
func bytesPerCall(tr *Tracker, call func(*Tracker)) uint64 {
	const calls = 16
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			call(tr)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return least
}
