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
func (b *BreakdownBucket) Pct(s Stage) float64 { return stagePct(&b.StageSum, s) }

// stagePct returns stage s's share of the cycles in sum in percent.
func stagePct(sum *[NumStages]sim.Cycle, s Stage) float64 {
	total := TotalOf(*sum)
	if total == 0 {
		return 0
	}
	return 100 * float64(sum[s]) / float64(total)
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

// binning is the latency axis both figures bucket on: n buckets of
// width cycles from lo. Bucket i is [lo+i·width, lo+(i+1)·width),
// half-open, except the last, which is inclusive, so a load on a
// boundary counts in exactly one bucket (the higher one); rangeLabel
// prints that rule.
type binning struct {
	lo, width sim.Cycle
	n         int
}

// binsOver splits [lo, hi] into n equal buckets.
func binsOver(lo, hi sim.Cycle, n int) binning {
	return binning{lo, (hi - lo + sim.Cycle(n)) / sim.Cycle(n), n}
}

// edges returns bucket i's Lo and Hi.
func (b binning) edges(i int) (lo, hi sim.Cycle) {
	return b.lo + sim.Cycle(i)*b.width, b.lo + sim.Cycle(i+1)*b.width
}

// of returns the index of the bucket latency v falls in.
func (b binning) of(v sim.Cycle) int { return min(int((v-b.lo)/b.width), b.n-1) }

// rangeLabel renders a bucket's range as [lo,hi), or [lo,hi] for the
// last bucket: adjacent buckets share an edge, and a load on it belongs
// to the higher one only.
func rangeLabel(lo, hi sim.Cycle, last bool) string {
	if last {
		return fmt.Sprintf("[%d,%d]", lo, hi)
	}
	return fmt.Sprintf("[%d,%d)", lo, hi)
}

// Breakdown builds the Figure 1 report over the tracker's loads with the
// requested number of buckets spanning [min, max] observed latency.
// numBuckets ≈ 48 reproduces the paper's bucket count.
func (t *Tracker) Breakdown(workload, arch string, numBuckets int) *BreakdownReport {
	if t.n == 0 || numBuckets <= 0 {
		return &BreakdownReport{Workload: workload, Arch: arch}
	}
	lo, hi := t.lifeRange()
	return t.breakdown(workload, arch, binsOver(lo, hi, numBuckets))
}

// BreakdownWidth builds the Figure 1 report with fixed-width latency
// buckets (the paper uses ≈38-cycle buckets), however many are needed to
// cover the observed range.
func (t *Tracker) BreakdownWidth(workload, arch string, width sim.Cycle) *BreakdownReport {
	if t.n == 0 || width == 0 {
		return &BreakdownReport{Workload: workload, Arch: arch}
	}
	lo, hi := t.lifeRange()
	return t.breakdown(workload, arch, binning{lo, width, int((hi-lo)/width) + 1})
}

// lifeRange returns the shortest and longest request lifetime taken.
func (t *Tracker) lifeRange() (lo, hi sim.Cycle) {
	lo = sim.Never
	for i := range t.life {
		lo, hi = min(lo, t.life[i].total), max(hi, t.life[i].total)
	}
	return lo, hi
}

func (t *Tracker) breakdown(workload, arch string, bins binning) *BreakdownReport {
	rep := &BreakdownReport{Workload: workload, Arch: arch}
	rep.Buckets = make([]BreakdownBucket, bins.n)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo, rep.Buckets[i].Hi = bins.edges(i)
	}
	for i := range t.life {
		c := &t.life[i]
		b := &rep.Buckets[bins.of(c.total)]
		b.Count += c.count
		for s, d := range c.stage {
			b.StageSum[s] += d
			rep.TotalStage[s] += d
		}
		rep.Requests += c.count
	}
	return rep
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
func (r *BreakdownReport) TotalPct(s Stage) float64 { return stagePct(&r.TotalStage, s) }

// RangeLabel renders bucket i's latency range (see rangeLabel).
func (r *BreakdownReport) RangeLabel(i int) string {
	return rangeLabel(r.Buckets[i].Lo, r.Buckets[i].Hi, i == len(r.Buckets)-1)
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
