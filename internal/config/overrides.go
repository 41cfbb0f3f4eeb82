package config

import (
	"fmt"
	"strings"

	"gpulat/internal/dram"
	"gpulat/internal/gpu"
	"gpulat/internal/sched"
	"gpulat/internal/sm"
)

// Overrides is the set of architectural knobs the experiment sweeps
// ablate. Zero values leave the preset untouched, so an Overrides can be
// applied unconditionally.
type Overrides struct {
	// WarpSched selects the per-SM warp scheduler ("LRR" or "GTO").
	WarpSched string `json:"warp_sched,omitempty"`
	// DRAMSched selects the memory controller scheduling policy
	// ("FR-FCFS", "FR-FCFS-cap", or "FCFS").
	DRAMSched string `json:"dram_sched,omitempty"`
	// L1MSHRs overrides the L1 miss-status holding register count.
	L1MSHRs int `json:"l1_mshrs,omitempty"`
	// MaxWarps caps resident warps per SM (the occupancy ablation). The
	// block-slot count shrinks proportionally, matching OccupancySweep.
	MaxWarps int `json:"max_warps,omitempty"`
	// Placement selects the concurrent-kernel block placement policy
	// ("shared" or "spatial"; the co-run interference sweeps ablate it).
	Placement string `json:"placement,omitempty"`
}

// Apply returns cfg with the non-zero overrides applied.
func (o Overrides) Apply(cfg gpu.Config) (gpu.Config, error) {
	if o.WarpSched != "" {
		p, err := ParseWarpSched(o.WarpSched)
		if err != nil {
			return cfg, err
		}
		cfg.SM.Scheduler = p
	}
	if o.DRAMSched != "" {
		p, err := ParseDRAMSched(o.DRAMSched)
		if err != nil {
			return cfg, err
		}
		cfg.Partition.DRAM.Scheduler = p
	}
	if o.L1MSHRs != 0 {
		if o.L1MSHRs < 1 {
			return cfg, fmt.Errorf("config: L1 MSHR override %d must be positive", o.L1MSHRs)
		}
		cfg.SM.L1.MSHREntries = o.L1MSHRs
	}
	if o.MaxWarps != 0 {
		if o.MaxWarps < 1 || o.MaxWarps > cfg.SM.MaxWarps {
			return cfg, fmt.Errorf("config: warp limit %d outside 1..%d", o.MaxWarps, cfg.SM.MaxWarps)
		}
		cfg.SM.MaxWarps = o.MaxWarps
		if blocks := (o.MaxWarps + 3) / 4; cfg.SM.MaxBlocks > blocks {
			cfg.SM.MaxBlocks = blocks
		}
	}
	if o.Placement != "" {
		p, err := ParsePlacement(o.Placement)
		if err != nil {
			return cfg, err
		}
		cfg.Placement = p
	}
	return cfg, nil
}

// ParsePlacement resolves a block placement-policy name ("shared" or
// "spatial"; empty selects the default shared policy).
func ParsePlacement(name string) (sched.Placement, error) {
	return sched.ParsePlacement(name)
}

// WarpSchedNames lists the selectable warp schedulers, default first.
func WarpSchedNames() []string { return []string{"LRR", "GTO"} }

// DRAMSchedNames lists the selectable DRAM schedulers, default first.
func DRAMSchedNames() []string { return []string{"FR-FCFS", "FR-FCFS-cap", "FCFS"} }

// ParseWarpSched resolves a warp scheduler policy name.
func ParseWarpSched(name string) (sm.SchedPolicy, error) {
	switch strings.ToUpper(name) {
	case "LRR":
		return sm.LRR, nil
	case "GTO":
		return sm.GTO, nil
	}
	return 0, fmt.Errorf("config: unknown warp scheduler %q (LRR or GTO)", name)
}

// ParseDRAMSched resolves a DRAM scheduler policy name.
func ParseDRAMSched(name string) (dram.SchedPolicy, error) {
	switch strings.ToUpper(strings.ReplaceAll(name, "_", "-")) {
	case "FR-FCFS", "FRFCFS":
		return dram.FRFCFS, nil
	case "FR-FCFS-CAP", "FRFCFSCAP":
		return dram.FRFCFSCap, nil
	case "FCFS":
		return dram.FCFS, nil
	}
	return 0, fmt.Errorf("config: unknown DRAM scheduler %q (FR-FCFS, FR-FCFS-cap, or FCFS)", name)
}
