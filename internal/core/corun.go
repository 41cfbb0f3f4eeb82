package core

import (
	"fmt"

	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// CoKernelResult is one kernel's share of a co-run: its dispatch span
// and per-kernel latency/exposure attribution. Exposure is classified
// against ALL issue activity on the load's SM — a co-resident kernel's
// instructions hide latency just like the kernel's own — so comparing a
// kernel's exposure across placement policies measures interference
// directly.
type CoKernelResult struct {
	KernelID int
	Stream   string
	Workload string

	// LaunchedAt/CompletedAt bound the kernel's block residency;
	// CyclesResident is their difference.
	LaunchedAt     sim.Cycle
	CompletedAt    sim.Cycle
	CyclesResident sim.Cycle

	BlocksDispatched int
	BlocksRetired    int

	// Loads and LoadLat summarize the kernel's tracked loads
	// (instruction-visible latency).
	Loads   int
	LoadLat stats.Summary

	// ExposedPct and MostlyExposedPct are the Figure 2 metrics computed
	// over this kernel's loads only.
	ExposedPct       float64
	MostlyExposedPct float64
}

// CoRunResult is the outcome of a concurrent-kernel interference run.
type CoRunResult struct {
	Arch      string
	Pair      string
	Placement sched.Placement
	// Cycles is the wall-clock of the whole co-run (both kernels, full
	// drain).
	Cycles  sim.Cycle
	Tracker *Tracker
	// Kernels holds the two sides in launch order (A then B).
	Kernels []CoKernelResult
	// Counters are the device's counters, read once the co-run finished;
	// the per-kernel stats reconcile against its totals.
	Counters gpu.Counters
}

// RunCoRun executes a co-run pair on a fresh device built from cfg: A
// and B are enqueued on their own streams, dispatched under
// cfg.Placement, run to completion concurrently, and verified
// independently.
func RunCoRun(cfg gpu.Config, pair *kernels.CoRunPair) (*CoRunResult, error) {
	tr := NewTracker()
	g := gpu.NewWithObservers(cfg, tr, nil)
	pair.A.Setup(g.Memory)
	pair.B.Setup(g.Memory)

	ksA, err := g.Enqueue("A", pair.A.Kernel)
	if err != nil {
		return nil, fmt.Errorf("corun %s: %w", pair.Name, err)
	}
	ksB, err := g.Enqueue("B", pair.B.Kernel)
	if err != nil {
		return nil, fmt.Errorf("corun %s: %w", pair.Name, err)
	}

	cycles, err := g.Run()
	if err != nil {
		return nil, fmt.Errorf("corun %s: %w", pair.Name, err)
	}
	if err := pair.A.Verify(g.Memory); err != nil {
		return nil, fmt.Errorf("corun %s: A: %w", pair.Name, err)
	}
	if err := pair.B.Verify(g.Memory); err != nil {
		return nil, fmt.Errorf("corun %s: B: %w", pair.Name, err)
	}

	res := &CoRunResult{
		Arch:      cfg.Name,
		Pair:      pair.Name,
		Placement: cfg.Placement,
		Cycles:    cycles,
		Tracker:   tr,
		Counters:  g.Counters(),
	}
	for _, side := range []struct {
		ks *sched.KernelState
		wl *kernels.Workload
	}{{ksA, pair.A}, {ksB, pair.B}} {
		res.Kernels = append(res.Kernels, coKernelResult(cfg.Name, side.ks, side.wl, tr))
	}
	return res, nil
}

// coKernelResult reads one kernel's totals from tr. No bucket count
// changes a total, so the exposure report takes one bucket.
func coKernelResult(arch string, ks *sched.KernelState, wl *kernels.Workload, tr *Tracker) CoKernelResult {
	kst := ks.Stats()
	lat := tr.KernelLoadSummary(ks.ID)
	er := tr.KernelExposure(wl.Name, arch, 1, ks.ID)
	return CoKernelResult{
		KernelID:         ks.ID,
		Stream:           ks.Stream,
		Workload:         wl.Name,
		LaunchedAt:       kst.LaunchedAt,
		CompletedAt:      kst.CompletedAt,
		CyclesResident:   ks.CyclesResident(),
		BlocksDispatched: kst.BlocksDispatched,
		BlocksRetired:    kst.BlocksRetired,
		Loads:            lat.Count,
		LoadLat:          lat,
		ExposedPct:       er.OverallExposedPct(),
		MostlyExposedPct: er.MostlyExposedPct(),
	}
}
