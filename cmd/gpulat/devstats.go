package main

import (
	"fmt"
	"os"

	"gpulat/internal/gpu"
	"gpulat/internal/stats"
)

// dumpDeviceStats prints the per-SM and per-partition counters of a
// device whose run has finished.
func dumpDeviceStats(g *gpu.GPU) {
	smTab := stats.NewTable("SM", "inst", "loads", "stores", "L1 hit", "L1 miss", "merged", "blocks")
	for _, s := range g.SMs() {
		st := s.Stats()
		if st.InstIssued == 0 {
			continue
		}
		smTab.AddRow(s.Config().ID, st.InstIssued, st.LoadsIssued, st.StoresIssued,
			st.L1Hits, st.L1Misses, st.L1MergedMisses, st.BlocksRetired)
	}
	smTab.Render(os.Stdout)
	fmt.Println()
	pTab := stats.NewTable("part", "arrivals", "L2 hit", "L2 miss", "stalls", "wb", "row hit", "row conf", "dram sched")
	for i, p := range g.Partitions() {
		ps := p.Stats()
		ds := p.DRAM().Stats()
		pTab.AddRow(i, ps.Arrivals, ps.L2Hits, ps.L2Misses, ps.L2Stalls,
			ps.Writebacks, ds.RowHits, ds.RowConflicts, ds.Scheduled)
	}
	pTab.Render(os.Stdout)
}
