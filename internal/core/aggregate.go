package core

import (
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// LoadAggregate is a run's tracked loads reduced to the integer sums the
// Figure 1 and Figure 2 reports and the load-latency summaries read, one
// cell per distinct latency. The tracker folds each load into its cells
// as the load retires, and Tracker.Aggregate hands them out in latency
// order; every report is built from it.
type LoadAggregate struct {
	// life has one cell per distinct request lifetime (Total), in
	// ascending order: Figure 1's input.
	life []lifeCell
	// inst has one cell per distinct instruction-visible latency
	// (InstTotal) and kernel, ascending by latency: the input of Figure
	// 2 and of the latency summaries, whole-run or per kernel.
	inst []instCell
}

// lifeCell sums the loads of one request lifetime.
type lifeCell struct {
	total sim.Cycle
	count int
	stage [NumStages]sim.Cycle
}

// instCell sums one kernel's loads of one instruction-visible latency.
type instCell struct {
	inst            sim.Cycle
	kernel          int
	count           int
	exposed, hidden sim.Cycle
	// mostlyExposed counts the loads more than half exposed.
	mostlyExposed int
}

// Aggregate returns the loads taken so far as a LoadAggregate: the
// tracker's cells read through its latency tables, so in ascending
// order. The tracker is left as it was.
func (t *Tracker) Aggregate() *LoadAggregate {
	a := &LoadAggregate{}
	if t.n == 0 {
		return a
	}
	a.life = make([]lifeCell, 0, len(t.life))
	for _, i := range t.lifeAt.at {
		if i != 0 {
			a.life = append(a.life, t.life[i-1])
		}
	}
	a.inst = make([]instCell, 0, len(t.inst))
	for _, j := range t.instAt.at {
		for ; j != 0; j = t.instNext[j-1] {
			a.inst = append(a.inst, t.inst[j-1])
		}
	}
	return a
}

// kernelCells returns the inst cells of one kernel, still ascending.
func (a *LoadAggregate) kernelCells(kernel int) []instCell {
	var out []instCell
	for _, c := range a.inst {
		if c.kernel == kernel {
			out = append(out, c)
		}
	}
	return out
}

// LoadSummary summarizes the instruction-visible latency (InstTotal) of
// every load: bit for bit what stats.Summarize returns over the loads'
// latencies.
func (a *LoadAggregate) LoadSummary() stats.Summary { return summarize(a.inst) }

// KernelLoadSummary is LoadSummary over one kernel's loads
// (LoadRecord.Kernel).
func (a *LoadAggregate) KernelLoadSummary(kernel int) stats.Summary {
	return summarize(a.kernelCells(kernel))
}

func summarize(cells []instCell) stats.Summary {
	runs := make([]stats.Run, len(cells))
	for i, c := range cells {
		runs[i] = stats.Run{V: float64(c.inst), N: c.count}
	}
	return stats.SummarizeRuns(runs)
}

// MeanLoadLatency returns the mean instruction-visible latency of the
// loads, 0 when there are none.
func (a *LoadAggregate) MeanLoadLatency() float64 {
	var sum sim.Cycle
	n := 0
	for _, c := range a.inst {
		sum += c.inst * sim.Cycle(c.count)
		n += c.count
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
