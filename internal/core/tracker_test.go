package core

import (
	"reflect"
	"slices"
	"testing"

	"gpulat/internal/config"
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

// fillDistinct delivers n loads that differ in every field the tracker
// derives, and returns the records it must now hold, in order.
func fillDistinct(tr *Tracker, n int) []LoadRecord {
	var want []LoadRecord
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
		rec := LoadRecord{SM: i % 5, Warp: i % 48, Kernel: i % 2,
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
		tr := NewTracker()
		for round := 0; round < 2; round++ {
			want := fillDistinct(tr, n)
			if tr.Len() != n {
				t.Fatalf("n=%d round %d: Len = %d", n, round, tr.Len())
			}
			if got := flat(tr); !slices.Equal(got, want) {
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
	tr := NewTracker()
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

// refBreakdown and refExposure are the reports as they were computed
// from one flat record slice (numBuckets-spanning form only), kept as
// the reference the in-place chunk walk is compared against.
func refBreakdown(recs []LoadRecord, workload, arch string, numBuckets int) *BreakdownReport {
	rep := &BreakdownReport{Workload: workload, Arch: arch}
	if len(recs) == 0 {
		return rep
	}
	lo, hi := recs[0].Total, recs[0].Total
	for _, r := range recs {
		lo, hi = min(lo, r.Total), max(hi, r.Total)
	}
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	rep.Buckets = make([]BreakdownBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for _, r := range recs {
		b := &rep.Buckets[min(int((r.Total-lo)/width), numBuckets-1)]
		b.Count++
		for s := Stage(0); s < NumStages; s++ {
			b.StageSum[s] += r.Stages[s]
			rep.TotalStage[s] += r.Stages[s]
		}
		rep.Requests++
	}
	return rep
}

func refExposure(tr *Tracker, recs []LoadRecord, workload, arch string, numBuckets int) *ExposureReport {
	rep := &ExposureReport{Workload: workload, Arch: arch}
	if len(recs) == 0 {
		return rep
	}
	lo, hi := recs[0].InstTotal, recs[0].InstTotal
	for _, r := range recs {
		lo, hi = min(lo, r.InstTotal), max(hi, r.InstTotal)
	}
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	rep.Buckets = make([]ExposureBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for _, r := range recs {
		exposed := tr.exposedCycles(r.SM, r.IssueAt, r.ReturnAt)
		b := &rep.Buckets[min(int((r.InstTotal-lo)/width), numBuckets-1)]
		b.Count++
		b.Exposed += exposed
		b.Hidden += r.InstTotal - exposed
		rep.TotalExposed += exposed
		rep.TotalHidden += r.InstTotal - exposed
		rep.Requests++
		if 2*exposed > r.InstTotal {
			rep.LoadsMostlyExposed++
		}
	}
	return rep
}

// TestReportsMatchFlatReference runs a small BFS (tens of chunks' worth
// of loads on two SMs' issue bitmaps) and requires Breakdown, Exposure
// and a filtered ExposureWhere to equal, field for field, the reports
// computed the old way from a flat copy of the records.
func TestReportsMatchFlatReference(t *testing.T) {
	mk, err := kernels.BFS(kernels.BFSConfig{Graph: kernels.GenScaleFree(1<<11, 4, 42), Source: 0, BlockDim: 128})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDynamicMulti(config.GF106(), mk)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tracker
	recs := flat(tr)
	if len(recs) <= 4*firstChunk {
		t.Fatalf("only %d loads: the run does not span enough chunks", len(recs))
	}
	for _, buckets := range []int{1, 16, 48} {
		if got, want := tr.Breakdown("bfs", "GF106", buckets), refBreakdown(recs, "bfs", "GF106", buckets); !reflect.DeepEqual(got, want) {
			t.Fatalf("Breakdown(%d) differs from the flat reference:\ngot  %+v\nwant %+v", buckets, got, want)
		}
		if got, want := tr.Exposure("bfs", "GF106", buckets), refExposure(tr, recs, "bfs", "GF106", buckets); !reflect.DeepEqual(got, want) {
			t.Fatalf("Exposure(%d) differs from the flat reference:\ngot  %+v\nwant %+v", buckets, got, want)
		}
	}
	onSM0 := func(r *LoadRecord) bool { return r.SM == 0 }
	var kept []LoadRecord
	for _, r := range recs {
		if onSM0(&r) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 || len(kept) == len(recs) {
		t.Fatalf("filter keeps %d of %d loads: not a real subset", len(kept), len(recs))
	}
	if got, want := tr.ExposureWhere("bfs", "GF106", 16, onSM0), refExposure(tr, kept, "bfs", "GF106", 16); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExposureWhere differs from the flat reference over the kept loads:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExposureWhereEqualsExposureOfKept: filtering at report time is the
// same as never having tracked the rejected loads — given the same issue
// activity, which the filter deliberately does not touch.
func TestExposureWhereEqualsExposureOfKept(t *testing.T) {
	all, only := NewTracker(), NewTracker()
	for c := sim.Cycle(0); c < 4000; c++ {
		for smID := 0; smID < 2; smID++ {
			issued := int((c/7 + sim.Cycle(smID)) % 3)
			all.IssueSlot(smID, c, issued)
			only.IssueSlot(smID, c, issued)
		}
	}
	var hit [NumStages]sim.Cycle
	for i := 0; i < 5*firstChunk; i++ {
		smID, issue := i%2, sim.Cycle(13*i)
		ret := issue + 20 + sim.Cycle(i*i%400)
		feed(all, smID, issue, ret, hit)
		if smID == 1 {
			feed(only, smID, issue, ret, hit)
		}
	}
	got := all.ExposureWhere("w", "a", 8, func(r *LoadRecord) bool { return r.SM == 1 })
	want := only.Exposure("w", "a", 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExposureWhere(keep) != Exposure over the kept loads:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Requests == 0 || got.TotalExposed == 0 || got.TotalHidden == 0 {
		t.Fatalf("degenerate report: %+v", got)
	}
}
