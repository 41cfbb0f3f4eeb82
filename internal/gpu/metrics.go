package gpu

import (
	"strconv"

	"gpulat/internal/metrics"
	"gpulat/internal/sched"
)

// ExportMetrics registers the -trace-sim families on reg: the tagged fields
// of Stats, each WakeStat and each kernel's KernelStats, read once per scrape.
func (g *GPU) ExportMetrics(reg *metrics.Registry) {
	type kernel struct {
		ID     string `metric:"kernel"`
		Stream string `metric:"stream"`
		sched.KernelStats
	}
	type snapshot struct {
		Stats
		Wakes   []WakeStat
		Kernels []kernel
	}
	metrics.Walk(reg, func() snapshot {
		s := snapshot{Stats: g.Stats(), Wakes: g.WakeStats()}
		for _, k := range g.disp.Kernels() {
			s.Kernels = append(s.Kernels, kernel{strconv.Itoa(k.ID), k.Stream, k.Stats()})
		}
		return s
	})
}
