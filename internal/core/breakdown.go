package core

import (
	"fmt"
	"io"
	"sort"

	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// BreakdownBucket is one latency bucket of the Figure 1 diagram.
type BreakdownBucket struct {
	Lo, Hi   sim.Cycle
	Count    int
	StageSum [NumStages]sim.Cycle
}

// Pct returns stage s's share of the bucket's total latency in percent.
func (b *BreakdownBucket) Pct(s Stage) float64 {
	total := sim.Cycle(0)
	for _, v := range b.StageSum {
		total += v
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(b.StageSum[s]) / float64(total)
}

// BreakdownReport is the per-bucket latency breakdown of Figure 1: for
// each latency range, the share of request lifetime spent in each of the
// eight memory pipeline stages.
type BreakdownReport struct {
	Workload string
	Arch     string
	Buckets  []BreakdownBucket
	// TotalStage aggregates stage time over all requests (used for the
	// "two key contributors" finding).
	TotalStage [NumStages]sim.Cycle
	Requests   int
}

// Breakdown builds the Figure 1 report with the requested number of
// buckets spanning [min, max] observed latency. numBuckets ≈ 48
// reproduces the paper's bucket count.
func (a *LoadAggregate) Breakdown(workload, arch string, numBuckets int) *BreakdownReport {
	if len(a.life) == 0 || numBuckets <= 0 {
		return &BreakdownReport{Workload: workload, Arch: arch}
	}
	lo, hi := a.life[0].total, a.life[len(a.life)-1].total
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	return a.breakdownBuckets(workload, arch, lo, width, numBuckets)
}

// BreakdownWidth builds the Figure 1 report with fixed-width latency
// buckets (the paper uses ≈38-cycle buckets), however many are needed to
// cover the observed range.
func (a *LoadAggregate) BreakdownWidth(workload, arch string, width sim.Cycle) *BreakdownReport {
	if len(a.life) == 0 || width == 0 {
		return &BreakdownReport{Workload: workload, Arch: arch}
	}
	lo, hi := a.life[0].total, a.life[len(a.life)-1].total
	return a.breakdownBuckets(workload, arch, lo, width, int((hi-lo)/width)+1)
}

func (a *LoadAggregate) breakdownBuckets(workload, arch string, lo, width sim.Cycle, numBuckets int) *BreakdownReport {
	rep := &BreakdownReport{Workload: workload, Arch: arch}
	rep.Buckets = make([]BreakdownBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for i := range a.life {
		c := &a.life[i]
		b := &rep.Buckets[min(int((c.total-lo)/width), numBuckets-1)]
		b.Count += c.count
		for s, d := range c.stage {
			b.StageSum[s] += d
			rep.TotalStage[s] += d
		}
		rep.Requests += c.count
	}
	return rep
}

// Breakdown is the Figure 1 report over the tracker's loads; see
// LoadAggregate.Breakdown.
func (t *Tracker) Breakdown(workload, arch string, numBuckets int) *BreakdownReport {
	return t.Aggregate().Breakdown(workload, arch, numBuckets)
}

// BreakdownWidth is the fixed-width Figure 1 report over the tracker's
// loads; see LoadAggregate.BreakdownWidth.
func (t *Tracker) BreakdownWidth(workload, arch string, width sim.Cycle) *BreakdownReport {
	return t.Aggregate().BreakdownWidth(workload, arch, width)
}

// TopContributors returns the stages ranked by total contribution
// (descending) — the paper's finding is that DRAM(QtoSch) and L1toICNT
// rank highest for memory-bound irregular workloads.
func (r *BreakdownReport) TopContributors() []Stage {
	order := make([]Stage, NumStages)
	for i := range order {
		order[i] = Stage(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return r.TotalStage[order[i]] > r.TotalStage[order[j]]
	})
	return order
}

// TotalPct returns stage s's share of all request lifetime in percent.
func (r *BreakdownReport) TotalPct(s Stage) float64 {
	var total sim.Cycle
	for _, v := range r.TotalStage {
		total += v
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(r.TotalStage[s]) / float64(total)
}

// RangeLabel renders bucket i's latency range under the same half-open
// convention ExposureReport uses: [lo,hi) everywhere except the last
// bucket, which is inclusive — bucket i's Hi equals bucket i+1's Lo, so
// the old "lo-hi" spelling made a boundary load read as a member of two
// buckets when the binning puts it in exactly one.
func (r *BreakdownReport) RangeLabel(i int) string {
	b := &r.Buckets[i]
	if i == len(r.Buckets)-1 {
		return fmt.Sprintf("[%d,%d]", b.Lo, b.Hi)
	}
	return fmt.Sprintf("[%d,%d)", b.Lo, b.Hi)
}

// Render writes the report as an aligned text table (one row per
// non-empty bucket, one column per stage), mirroring Figure 1. Bucket
// ranges are half-open (see RangeLabel).
func (r *BreakdownReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Latency breakdown by pipeline stage — %s on %s (%d loads)\n",
		r.Workload, r.Arch, r.Requests)
	hdr := []string{"latency", "count"}
	for s := Stage(0); s < NumStages; s++ {
		hdr = append(hdr, s.String()+"%")
	}
	tb := stats.NewTable(hdr...)
	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Count == 0 {
			continue
		}
		row := []any{r.RangeLabel(i), b.Count}
		for s := Stage(0); s < NumStages; s++ {
			row = append(row, b.Pct(s))
		}
		tb.AddRow(row...)
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nOverall stage shares: ")
	for i, s := range r.TopContributors() {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%s %.1f%%", s, r.TotalPct(s))
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the bucket table as CSV for plotting. As in the
// exposure CSV, lo is inclusive and hi exclusive (the last row's hi is
// inclusive), so consecutive rows tile the latency axis without overlap.
func (r *BreakdownReport) RenderCSV(w io.Writer) {
	hdr := []string{"lo_incl", "hi_excl", "count"}
	for s := Stage(0); s < NumStages; s++ {
		hdr = append(hdr, s.String())
	}
	tb := stats.NewTable(hdr...)
	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Count == 0 {
			continue
		}
		row := []any{fmt.Sprint(b.Lo), fmt.Sprint(b.Hi), b.Count}
		for s := Stage(0); s < NumStages; s++ {
			row = append(row, b.Pct(s))
		}
		tb.AddRow(row...)
	}
	tb.RenderCSV(w)
}
