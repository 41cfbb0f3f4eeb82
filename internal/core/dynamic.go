package core

import (
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// DynamicResult is the outcome of an instrumented workload run. The
// Figure 1 and Figure 2 reports and the load summary read the cells its
// tracker folded as the run's loads retired; the tracker keeps per-load
// records only if it was made with KeepRecords.
type DynamicResult struct {
	Arch     string
	Workload string
	Tracker  *Tracker
	Cycles   sim.Cycle
	// Launches counts kernel launches (BFS levels, 1 for plain kernels).
	Launches int
	// Instructions is the total dynamic instruction count.
	Instructions uint64
	// Counters are the device's counters, read once the run finished.
	Counters gpu.Counters
	// Device is the GPU the run executed on, released (gpu.GPU.Release)
	// in a runner payload. Never serialized; excluded from comparable
	// encodings.
	Device *gpu.GPU `json:"-"`
}

// Breakdown builds the Figure 1 report over the run's tracked loads.
func (r *DynamicResult) Breakdown(buckets int) *BreakdownReport {
	return r.Tracker.Breakdown(r.Workload, r.Arch, buckets)
}

// Exposure builds the Figure 2 report over the run's tracked loads.
func (r *DynamicResult) Exposure(buckets int) *ExposureReport {
	return r.Tracker.Exposure(r.Workload, r.Arch, buckets)
}

// LoadSummary summarizes the instruction-visible latency of the run's
// tracked loads.
func (r *DynamicResult) LoadSummary() stats.Summary { return r.Tracker.LoadSummary() }

// IPC returns device-wide instructions per cycle.
func (r *DynamicResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// RunDynamic executes a single-kernel workload with full latency
// instrumentation on a fresh GPU built from cfg; opts configure its
// tracker.
func RunDynamic(cfg gpu.Config, wl *kernels.Workload, opts ...TrackerOption) (*DynamicResult, error) {
	tr := NewTracker(opts...)
	g := gpu.NewWithObservers(cfg, tr, nil)
	cycles, err := kernels.Run(g, wl)
	if err != nil {
		return nil, err
	}
	return finish(cfg, wl.Name, g, tr, cycles, 1), nil
}

// RunDynamicMulti executes a host-loop workload (e.g. BFS) with full
// instrumentation.
func RunDynamicMulti(cfg gpu.Config, mk *kernels.MultiKernel, opts ...TrackerOption) (*DynamicResult, error) {
	tr := NewTracker(opts...)
	g := gpu.NewWithObservers(cfg, tr, nil)
	cycles, iters, err := kernels.RunMulti(g, mk)
	if err != nil {
		return nil, err
	}
	return finish(cfg, mk.Name, g, tr, cycles, iters), nil
}

func finish(cfg gpu.Config, name string, g *gpu.GPU, tr *Tracker, cycles sim.Cycle, launches int) *DynamicResult {
	c := g.Counters()
	var inst uint64
	for _, s := range c.SMs {
		inst += s.InstIssued
	}
	return &DynamicResult{
		Arch:         cfg.Name,
		Workload:     name,
		Tracker:      tr,
		Cycles:       cycles,
		Launches:     launches,
		Instructions: inst,
		Counters:     c,
		Device:       g,
	}
}
