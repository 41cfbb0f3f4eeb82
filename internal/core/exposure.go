package core

import (
	"fmt"
	"io"

	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// ExposureBucket is one latency bucket of the Figure 2 diagram. Buckets
// are half-open: a load with total latency v belongs to the bucket with
// Lo <= v < Hi, except the last bucket, which also includes v == Hi —
// bucket i's Hi equals bucket i+1's Lo, so a load on the boundary counts
// in exactly one bucket (the higher one). Renderers print the ranges in
// this [lo,hi) convention.
type ExposureBucket struct {
	Lo, Hi  sim.Cycle
	Count   int
	Exposed sim.Cycle
	Hidden  sim.Cycle
}

// ExposedPct returns the exposed share of bucket latency in percent.
func (b *ExposureBucket) ExposedPct() float64 {
	t := b.Exposed + b.Hidden
	if t == 0 {
		return 0
	}
	return 100 * float64(b.Exposed) / float64(t)
}

// ExposureReport is the Figure 2 analysis: for each latency bucket, the
// fraction of load latency that was exposed (the issuing SM could not
// cover the wait with other work) versus hidden.
type ExposureReport struct {
	Workload string
	Arch     string
	Buckets  []ExposureBucket

	TotalExposed sim.Cycle
	TotalHidden  sim.Cycle
	Requests     int
	// LoadsMostlyExposed counts loads with >50% exposed latency (the
	// paper: "more than 50% for most of the global memory load
	// instructions").
	LoadsMostlyExposed int
}

// Exposure builds the Figure 2 report. A cycle of a load's lifetime is
// hidden when the SM issued at least one instruction (from any warp)
// that cycle, exposed otherwise — the operational form of the paper's
// "cannot be hidden through the execution of other independent work".
func (a *LoadAggregate) Exposure(workload, arch string, numBuckets int) *ExposureReport {
	return exposure(workload, arch, numBuckets, a.inst)
}

// KernelExposure is Exposure over one kernel's loads
// (LoadRecord.Kernel). Under concurrent kernels it attributes exposure
// per kernel: the report covers only that kernel's loads, while the
// hidden/exposed classification still saw every co-resident kernel's
// issue activity — a load counts as hidden when ANY resident work
// covered the wait, which is exactly the interference question the
// co-run experiments ask.
func (a *LoadAggregate) KernelExposure(workload, arch string, numBuckets, kernel int) *ExposureReport {
	return exposure(workload, arch, numBuckets, a.kernelCells(kernel))
}

// exposure buckets cells, which ascend by latency, into the Figure 2
// report.
func exposure(workload, arch string, numBuckets int, cells []instCell) *ExposureReport {
	rep := &ExposureReport{Workload: workload, Arch: arch}
	if len(cells) == 0 || numBuckets <= 0 {
		return rep
	}
	lo, hi := cells[0].inst, cells[len(cells)-1].inst
	width := (hi - lo + sim.Cycle(numBuckets)) / sim.Cycle(numBuckets)
	rep.Buckets = make([]ExposureBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo = lo + sim.Cycle(i)*width
		rep.Buckets[i].Hi = lo + sim.Cycle(i+1)*width
	}
	for i := range cells {
		c := &cells[i]
		b := &rep.Buckets[min(int((c.inst-lo)/width), numBuckets-1)]
		b.Count += c.count
		b.Exposed += c.exposed
		b.Hidden += c.hidden
		rep.TotalExposed += c.exposed
		rep.TotalHidden += c.hidden
		rep.Requests += c.count
		rep.LoadsMostlyExposed += c.mostlyExposed
	}
	return rep
}

// Exposure is the Figure 2 report over the tracker's loads; see
// LoadAggregate.Exposure.
func (t *Tracker) Exposure(workload, arch string, numBuckets int) *ExposureReport {
	return t.Aggregate().Exposure(workload, arch, numBuckets)
}

// OverallExposedPct returns the exposed share across all loads.
func (r *ExposureReport) OverallExposedPct() float64 {
	t := r.TotalExposed + r.TotalHidden
	if t == 0 {
		return 0
	}
	return 100 * float64(r.TotalExposed) / float64(t)
}

// MostlyExposedPct returns the share of loads with >50% exposure.
func (r *ExposureReport) MostlyExposedPct() float64 {
	if r.Requests == 0 {
		return 0
	}
	return 100 * float64(r.LoadsMostlyExposed) / float64(r.Requests)
}

// RangeLabel renders bucket i's latency range under the half-open
// convention: [lo,hi) everywhere except the last bucket, which is
// inclusive. The old "lo-hi" spelling made adjacent buckets appear to
// overlap (bucket i's Hi is bucket i+1's Lo), so a boundary load read as
// belonging to two buckets when the binning puts it in exactly one.
func (r *ExposureReport) RangeLabel(i int) string {
	b := &r.Buckets[i]
	if i == len(r.Buckets)-1 {
		return fmt.Sprintf("[%d,%d]", b.Lo, b.Hi)
	}
	return fmt.Sprintf("[%d,%d)", b.Lo, b.Hi)
}

// Render writes the report as a text table with proportional bars,
// mirroring Figure 2. Bucket ranges are half-open (see ExposureBucket).
func (r *ExposureReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Exposed vs hidden load latency — %s on %s (%d loads)\n",
		r.Workload, r.Arch, r.Requests)
	tb := stats.NewTable("latency", "count", "exposed%", "hidden%", "exposure")
	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Count == 0 {
			continue
		}
		tb.AddRow(r.RangeLabel(i), b.Count,
			b.ExposedPct(), 100-b.ExposedPct(), stats.Bar(b.ExposedPct()/100, 20))
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nOverall exposed: %.1f%% of load latency; %.1f%% of loads are >50%% exposed\n",
		r.OverallExposedPct(), r.MostlyExposedPct())
}

// RenderCSV writes the bucket table as CSV for plotting. The lo column
// is inclusive and hi is exclusive (half-open buckets; the last row's hi
// is inclusive), so consecutive rows tile the latency axis without
// overlap.
func (r *ExposureReport) RenderCSV(w io.Writer) {
	tb := stats.NewTable("lo_incl", "hi_excl", "count", "exposed_pct", "hidden_pct")
	for i := range r.Buckets {
		b := &r.Buckets[i]
		if b.Count == 0 {
			continue
		}
		tb.AddRow(fmt.Sprint(b.Lo), fmt.Sprint(b.Hi), b.Count, b.ExposedPct(), 100-b.ExposedPct())
	}
	tb.RenderCSV(w)
}
