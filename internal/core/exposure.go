package core

import (
	"fmt"
	"io"

	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// ExposureBucket is one latency bucket of the Figure 2 diagram, binned
// by the rule Figure 1 shares (see binning): half-open [Lo,Hi), the last
// bucket inclusive.
type ExposureBucket struct {
	Lo, Hi  sim.Cycle
	Count   int
	Exposed sim.Cycle
	Hidden  sim.Cycle
}

// ExposedPct returns the exposed share of bucket latency in percent.
func (b *ExposureBucket) ExposedPct() float64 { return exposedPct(b.Exposed, b.Hidden) }

// exposedPct returns exposed's share of exposed + hidden in percent.
func exposedPct(exposed, hidden sim.Cycle) float64 {
	if exposed+hidden == 0 {
		return 0
	}
	return 100 * float64(exposed) / float64(exposed+hidden)
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

// Exposure builds the Figure 2 report over the tracker's loads. A cycle
// of a load's lifetime is hidden when the SM issued at least one
// instruction (from any warp) that cycle, exposed otherwise — the
// operational form of the paper's "cannot be hidden through the
// execution of other independent work".
func (t *Tracker) Exposure(workload, arch string, numBuckets int) *ExposureReport {
	return t.KernelExposure(workload, arch, numBuckets, anyKernel)
}

// KernelExposure is Exposure over one kernel's loads
// (LoadRecord.Kernel). Under concurrent kernels it attributes exposure
// per kernel: the report covers only that kernel's loads, while the
// hidden/exposed classification still saw every co-resident kernel's
// issue activity — a load counts as hidden when ANY resident work
// covered the wait, which is exactly the interference question the
// co-run experiments ask. Exposure passes anyKernel for every kernel's
// loads.
func (t *Tracker) KernelExposure(workload, arch string, numBuckets, kernel int) *ExposureReport {
	rep := &ExposureReport{Workload: workload, Arch: arch}
	lo, hi := sim.Never, sim.Cycle(0)
	for i := range t.inst {
		if c := &t.inst[i]; kernel == anyKernel || c.kernel == kernel {
			lo, hi = min(lo, c.inst), max(hi, c.inst)
		}
	}
	if lo > hi || numBuckets <= 0 {
		return rep
	}
	bins := binsOver(lo, hi, numBuckets)
	rep.Buckets = make([]ExposureBucket, numBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Lo, rep.Buckets[i].Hi = bins.edges(i)
	}
	for i := range t.inst {
		c := &t.inst[i]
		if kernel != anyKernel && c.kernel != kernel {
			continue
		}
		b := &rep.Buckets[bins.of(c.inst)]
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

// OverallExposedPct returns the exposed share across all loads.
func (r *ExposureReport) OverallExposedPct() float64 {
	return exposedPct(r.TotalExposed, r.TotalHidden)
}

// MostlyExposedPct returns the share of loads with >50% exposure.
func (r *ExposureReport) MostlyExposedPct() float64 {
	if r.Requests == 0 {
		return 0
	}
	return 100 * float64(r.LoadsMostlyExposed) / float64(r.Requests)
}

// RangeLabel renders bucket i's latency range (see rangeLabel).
func (r *ExposureReport) RangeLabel(i int) string {
	return rangeLabel(r.Buckets[i].Lo, r.Buckets[i].Hi, i == len(r.Buckets)-1)
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
