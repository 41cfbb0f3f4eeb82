package gpu

import (
	"strconv"

	"gpulat/internal/metrics"
	"gpulat/internal/sched"
)

// ExportMetrics registers the device's engine-efficiency and dispatch
// counters on reg — the `-trace-sim` surface. Collection is scrape-time
// and read-only: every family snapshots counters the simulation already
// maintains, so exporting a device can never perturb its results. The
// families are the exact engine counters (cycles stepped vs. skipped,
// per-component wake activity) plus the per-kernel dispatch/retire
// timeline from the stream dispatcher.
func (g *GPU) ExportMetrics(reg *metrics.Registry) {
	reg.CounterFunc("gpulat_sim_cycles_total",
		"Simulated cycles (identical across engines).",
		func() float64 { return float64(g.Stats().Cycles) })
	reg.CounterFunc("gpulat_sim_skipped_cycles_total",
		"Cycles the event engine fast-forwarded instead of stepping.",
		func() float64 { return float64(g.Stats().SkippedCycles) })
	reg.CounterFunc("gpulat_sim_kernels_launched_total",
		"Kernels launched on the device.",
		func() float64 { return float64(g.Stats().KernelsLaunched) })
	reg.CounterFunc("gpulat_sim_blocks_dispatched_total",
		"Thread blocks placed on SMs across all kernels.",
		func() float64 { return float64(g.Stats().BlocksDispatch) })

	reg.VecFunc(metrics.KindCounter, "gpulat_sim_component_arms_total",
		"Wake registrations the event scheduler accepted, per component.",
		[]string{"component"},
		func(emit func([]string, float64)) {
			for _, ws := range g.WakeStats() {
				emit([]string{ws.Name}, float64(ws.Arms))
			}
		})
	reg.VecFunc(metrics.KindCounter, "gpulat_sim_component_wakes_total",
		"Due wake-ups that led to processing, per component.",
		[]string{"component"},
		func(emit func([]string, float64)) {
			for _, ws := range g.WakeStats() {
				emit([]string{ws.Name}, float64(ws.Fired))
			}
		})

	// Per-kernel dispatch/retire timeline. Kernels are labeled by launch
	// sequence number and stream — stable, bounded, and meaningful across
	// engines (IDs are assigned in enqueue order).
	kernelVec := func(name, help string, field func(*sched.KernelState) float64) {
		reg.VecFunc(metrics.KindGauge, name, help, []string{"kernel", "stream"},
			func(emit func([]string, float64)) {
				for _, ks := range g.Dispatcher().Kernels() {
					emit([]string{strconv.Itoa(ks.ID), ks.Stream}, field(ks))
				}
			})
	}
	kernelVec("gpulat_sim_kernel_blocks_dispatched",
		"Blocks of the kernel placed on SMs.",
		func(k *sched.KernelState) float64 { return float64(k.Stats().BlocksDispatched) })
	kernelVec("gpulat_sim_kernel_blocks_retired",
		"Blocks of the kernel that ran to completion.",
		func(k *sched.KernelState) float64 { return float64(k.Stats().BlocksRetired) })
	kernelVec("gpulat_sim_kernel_launched_cycle",
		"Cycle the kernel began dispatching.",
		func(k *sched.KernelState) float64 { return float64(k.Stats().LaunchedAt) })
	kernelVec("gpulat_sim_kernel_completed_cycle",
		"Cycle the kernel's last block retired (0 while running).",
		func(k *sched.KernelState) float64 {
			if !k.Done() {
				return 0
			}
			return float64(k.Stats().CompletedAt)
		})
}
