package core

import (
	"strings"
	"testing"
	"testing/quick"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

func fullLog(issue sim.Cycle, gaps [8]sim.Cycle) *mem.StageLog {
	l := &mem.StageLog{}
	c := issue
	l.Mark(mem.PtIssue, c)
	l.Mark(mem.PtCreated, c)
	for p := mem.PtL1Access; p <= mem.PtReturnSM; p++ {
		c += gaps[int(p)-2]
		l.Mark(p, c)
	}
	return l
}

func TestStageDurationsFullPath(t *testing.T) {
	gaps := [8]sim.Cycle{10, 20, 30, 40, 50, 60, 70, 80}
	dur, ok := StageDurations(fullLog(100, gaps))
	if !ok {
		t.Fatal("valid log rejected")
	}
	want := [NumStages]sim.Cycle{10, 20, 30, 40, 50, 60, 70, 80}
	if dur != want {
		t.Fatalf("durations = %v, want %v", dur, want)
	}
	if TotalOf(dur) != 360 {
		t.Fatalf("total = %d", TotalOf(dur))
	}
}

func TestStageDurationsL1Hit(t *testing.T) {
	l := &mem.StageLog{}
	l.Mark(mem.PtIssue, 10)
	l.Mark(mem.PtCreated, 10)
	l.Mark(mem.PtL1Access, 26)
	l.Mark(mem.PtReturnSM, 55)
	dur, ok := StageDurations(l)
	if !ok {
		t.Fatal("hit log rejected")
	}
	// Entire lifetime attributed to SM base (paper's hit buckets).
	if dur[StageSMBase] != 45 {
		t.Fatalf("SMBase = %d, want 45", dur[StageSMBase])
	}
	for s := StageL1ToICNT; s < NumStages; s++ {
		if dur[s] != 0 {
			t.Fatalf("stage %v nonzero for hit", s)
		}
	}
}

func TestStageDurationsL2Hit(t *testing.T) {
	l := &mem.StageLog{}
	l.Mark(mem.PtIssue, 0)
	l.Mark(mem.PtCreated, 0)
	l.Mark(mem.PtL1Access, 16)
	l.Mark(mem.PtICNTInject, 20)
	l.Mark(mem.PtROPArrive, 40)
	l.Mark(mem.PtL2QArrive, 186)
	l.Mark(mem.PtReturnSM, 310)
	dur, ok := StageDurations(l)
	if !ok {
		t.Fatal("L2 hit log rejected")
	}
	if dur[StageDRAMQueue] != 0 || dur[StageDRAMAccess] != 0 {
		t.Fatal("L2 hit charged DRAM stages")
	}
	if dur[StageFetch2SM] != 310-186 {
		t.Fatalf("Fetch2SM = %d", dur[StageFetch2SM])
	}
	if TotalOf(dur) != 310 {
		t.Fatalf("total = %d", TotalOf(dur))
	}
}

func TestStageDurationsRejectsBadLogs(t *testing.T) {
	if _, ok := StageDurations(nil); ok {
		t.Fatal("nil log accepted")
	}
	incomplete := &mem.StageLog{}
	incomplete.Mark(mem.PtIssue, 5)
	if _, ok := StageDurations(incomplete); ok {
		t.Fatal("incomplete log accepted")
	}
}

// Property: stage durations always sum to total latency for any valid
// point sequence.
func TestStageSumEqualsTotalProperty(t *testing.T) {
	f := func(issue uint16, gaps [8]uint8) bool {
		var g [8]sim.Cycle
		for i := range gaps {
			g[i] = sim.Cycle(gaps[i])
		}
		l := fullLog(sim.Cycle(issue), g)
		dur, ok := StageDurations(l)
		if !ok {
			return false
		}
		total, _ := l.Total()
		return TotalOf(dur) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerExposureCounting: the test-only issue bitmap the exposure
// oracle reads counts exposed cycles by window.
func TestTrackerExposureCounting(t *testing.T) {
	tr := &issueBitmap{}
	// SM 0 issues on cycles 10..19 and 30..39; silent 20..29.
	for c := sim.Cycle(10); c < 40; c++ {
		issued := 0
		if c < 20 || c >= 30 {
			issued = 1
		}
		tr.IssueSlot(0, c, issued)
	}
	if got := tr.exposedCycles(0, 10, 40); got != 10 {
		t.Fatalf("exposed = %d, want 10", got)
	}
	if got := tr.exposedCycles(0, 20, 30); got != 10 {
		t.Fatalf("fully idle window exposed = %d, want 10", got)
	}
	if got := tr.exposedCycles(0, 10, 20); got != 0 {
		t.Fatalf("fully busy window exposed = %d, want 0", got)
	}
	// Unknown SM: everything exposed... but must not panic.
	if got := tr.exposedCycles(5, 0, 10); got != 0 {
		t.Fatalf("unknown SM = %d", got)
	}
}

// Property: the issue bitmap's exposedCycles matches a naive per-cycle
// model.
func TestExposureMatchesNaiveProperty(t *testing.T) {
	f := func(pattern []bool, startSeed, lenSeed uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		if len(pattern) > 200 {
			pattern = pattern[:200]
		}
		tr := &issueBitmap{}
		for c, issued := range pattern {
			n := 0
			if issued {
				n = 1
			}
			tr.IssueSlot(0, sim.Cycle(c), n)
		}
		from := int(startSeed) % len(pattern)
		to := from + int(lenSeed)%(len(pattern)-from+1)
		want := sim.Cycle(0)
		for c := from; c < to; c++ {
			if !pattern[c] {
				want++
			}
		}
		return tr.exposedCycles(0, sim.Cycle(from), sim.Cycle(to)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// feed delivers one completed load to tr the way the simulator does,
// through RequestDone, with a stage log that yields the given stage
// durations. The zero stages value is an L1 hit (the whole lifetime is
// SMBase); otherwise the durations must sum to ret-issue. Its SM issued
// in none of its cycles: the load is fully exposed.
func feed(tr *Tracker, sm int, issue, ret sim.Cycle, stages [NumStages]sim.Cycle) {
	feedKernel(tr, sm, 0, issue, ret, 0, stages)
}

// feedKernel is feed for a load of the given kernel whose SM issued in
// hidden of its cycles.
func feedKernel(tr *Tracker, sm, kernel int, issue, ret, hidden sim.Cycle, stages [NumStages]sim.Cycle) {
	l := &mem.StageLog{IssueStamp: 1000, ReturnStamp: 1000 + uint64(hidden)}
	l.Mark(mem.PtIssue, issue)
	l.Mark(mem.PtCreated, issue)
	if stages == ([NumStages]sim.Cycle{}) {
		l.Mark(mem.PtL1Access, issue)
	} else {
		c := issue
		for p := mem.PtL1Access; p <= mem.PtDRAMDone; p++ {
			c += stages[stageEndingAt[p]]
			l.Mark(p, c)
		}
		if c+stages[StageFetch2SM] != ret {
			panic("feed: stage durations do not sum to the load's lifetime")
		}
	}
	l.Mark(mem.PtReturnSM, ret)
	tr.RequestDone(ret, &mem.Request{SM: sm, Kernel: kernel, Log: l})
}

func TestBreakdownBucketing(t *testing.T) {
	tr := NewTracker()
	// Two fast "hits" (50 cycles, all SMBase) and two slow misses
	// (1000 cycles, mostly DRAM queue).
	var hit [NumStages]sim.Cycle
	var miss [NumStages]sim.Cycle
	miss[StageSMBase] = 100
	miss[StageDRAMQueue] = 700
	miss[StageFetch2SM] = 200
	feed(tr, 0, 0, 50, hit)
	feed(tr, 0, 10, 60, hit)
	feed(tr, 0, 0, 1000, miss)
	feed(tr, 0, 5, 1005, miss)
	rep := tr.Breakdown("test", "tiny", 10)
	if rep.Requests != 4 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	var nonEmpty []BreakdownBucket
	for _, b := range rep.Buckets {
		if b.Count > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) != 2 {
		t.Fatalf("non-empty buckets = %d, want 2", len(nonEmpty))
	}
	if nonEmpty[0].Pct(StageSMBase) != 100 {
		t.Fatalf("hit bucket SMBase%% = %.1f", nonEmpty[0].Pct(StageSMBase))
	}
	if nonEmpty[1].Pct(StageDRAMQueue) != 70 {
		t.Fatalf("miss bucket DRAMQueue%% = %.1f", nonEmpty[1].Pct(StageDRAMQueue))
	}
	top := rep.TopContributors()
	if top[0] != StageDRAMQueue {
		t.Fatalf("top contributor = %v", top[0])
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "DRAM(QtoSch)") {
		t.Fatal("render missing stage name")
	}
	sb.Reset()
	rep.RenderCSV(&sb)
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != 3 {
		t.Fatalf("CSV rows: %q", sb.String())
	}
}

func TestExposureReport(t *testing.T) {
	tr := NewTracker()
	// SM 0 never issues: all latency exposed. SM 1 always issues: all
	// hidden.
	var hit [NumStages]sim.Cycle
	feedKernel(tr, 0, 0, 100, 500, 0, hit)
	feedKernel(tr, 1, 0, 100, 500, 400, hit)
	rep := tr.Exposure("test", "tiny", 4)
	if rep.Requests != 2 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if rep.OverallExposedPct() != 50 {
		t.Fatalf("overall exposed = %.1f, want 50", rep.OverallExposedPct())
	}
	if rep.LoadsMostlyExposed != 1 {
		t.Fatalf("mostly exposed = %d, want 1", rep.LoadsMostlyExposed)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "exposed") {
		t.Fatal("render missing content")
	}
}

// TestTrackerReset: Reset frees the cells, tables and records and keeps
// the KeepRecords switch.
func TestTrackerReset(t *testing.T) {
	tr := NewTracker(KeepRecords)
	feed(tr, 0, 0, 10, [NumStages]sim.Cycle{})
	tr.RequestDone(0, &mem.Request{Log: &mem.StageLog{}})
	tr.Reset()
	if tr.Len() != 0 || len(flat(tr)) != 0 || tr.Footprint() != 0 || tr.BadLogs() != 0 {
		t.Fatalf("Reset left %d loads, %d records, %d bytes, %d bad logs", tr.Len(), len(flat(tr)), tr.Footprint(), tr.BadLogs())
	}
	if rep := tr.Exposure("reset", "tiny", 4); rep.Requests != 0 {
		t.Fatalf("cells survived Reset: %+v", rep)
	}
	feed(tr, 0, 0, 10, [NumStages]sim.Cycle{})
	if len(flat(tr)) != 1 {
		t.Fatal("Reset dropped the KeepRecords switch")
	}
}

func TestBreakdownEmptyTracker(t *testing.T) {
	tr := NewTracker()
	rep := tr.Breakdown("empty", "none", 10)
	if rep.Requests != 0 || len(rep.Buckets) != 0 {
		t.Fatal("empty tracker produced buckets")
	}
	er := tr.Exposure("empty", "none", 10)
	if er.Requests != 0 {
		t.Fatal("empty exposure nonzero")
	}
}

func TestTrackerDropsBadLogs(t *testing.T) {
	tr := NewTracker()
	r := &mem.Request{ID: 1, Log: &mem.StageLog{}} // incomplete log
	tr.RequestDone(0, r)
	if tr.BadLogs() != 1 || tr.Len() != 0 {
		t.Fatalf("bad log not counted: %d records %d bad", tr.Len(), tr.BadLogs())
	}
}
