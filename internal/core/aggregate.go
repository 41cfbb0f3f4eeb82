package core

import (
	"math"

	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// LoadAggregate is a run's tracked loads reduced to the integer sums the
// Figure 1 and Figure 2 reports and the load-latency summaries read, one
// cell per distinct latency. BFS at 8,192 vertices on GF100 folds into
// 391 KB of cells from 6.6 MB of records (56 bytes a load) and issue
// bitmaps. Tracker.Aggregate folds one; every report is built from it.
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

// Aggregate folds the tracker's records and issue bitmaps into a
// LoadAggregate; the tracker is left as it was.
func (t *Tracker) Aggregate() *LoadAggregate {
	a := &LoadAggregate{}
	if t.n == 0 {
		return a
	}
	// A cell is found through a table indexed by latency over the range
	// the records span (the first pass finds it), 4 bytes a cycle: a
	// run's latencies lie within a few thousand cycles of each other
	// (16,443 for transpose, the widest catalog kernel at experiment
	// scale on GF100), so a lookup is one load from a small table where
	// a map pays a hash.
	loT, hiT, loI, hiI := uint32(math.MaxUint32), uint32(0), uint32(math.MaxUint32), uint32(0)
	for r := range t.All() {
		loT, hiT = min(loT, r.inst-r.created), max(hiT, r.inst-r.created)
		loI, hiI = min(loI, r.inst), max(hiI, r.inst)
	}
	// lifeAt holds a cell's index + 1 (0: none yet). instAt holds the
	// latency's newest cell + 1; its cells of other kernels chain back
	// through next.
	lifeAt, instAt := make([]int32, hiT-loT+1), make([]int32, hiI-loI+1)
	// A run has no more distinct latencies than loads or than cycles of
	// range; one kernel's run has no more inst cells either.
	life := make([]lifeCell, 0, min(t.n, len(lifeAt)))
	inst := make([]instCell, 0, min(t.n, len(instAt)))
	next := make([]int32, 0, cap(inst))
	for r := range t.All() {
		i := &lifeAt[r.inst-r.created-loT]
		if *i == 0 {
			life = append(life, lifeCell{total: r.Total()})
			*i = int32(len(life))
		}
		lc := &life[*i-1]
		lc.count++
		for s, d := range r.stages {
			lc.stage[s] += sim.Cycle(d)
		}

		head := &instAt[r.inst-loI]
		j := *head
		for j != 0 && inst[j-1].kernel != r.Kernel() {
			j = next[j-1]
		}
		if j == 0 {
			inst = append(inst, instCell{inst: r.InstTotal(), kernel: r.Kernel()})
			next = append(next, *head)
			j = int32(len(inst))
			*head = j
		}
		ic := &inst[j-1]
		exposed := t.exposedCycles(r.SM(), r.IssueAt(), r.ReturnAt())
		ic.count++
		ic.exposed += exposed
		ic.hidden += ic.inst - exposed
		if 2*exposed > ic.inst {
			ic.mostlyExposed++
		}
	}
	a.life = make([]lifeCell, 0, len(life))
	for _, i := range lifeAt {
		if i != 0 {
			a.life = append(a.life, life[i-1])
		}
	}
	a.inst = make([]instCell, 0, len(inst))
	for _, j := range instAt {
		for ; j != 0; j = next[j-1] {
			a.inst = append(a.inst, inst[j-1])
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
