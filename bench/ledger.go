package main

// The per-layer ledger. Two kinds of metric fill it:
//
//   - workload-scoped counts and span times, reported by the traced
//     workload itself (workload.layers): they say what a layer did in
//     that workload, and read 0 when the workload does not run the layer;
//   - direct-call measurements, taken here by calling one layer at a time
//     through its exported functions. They do not depend on the workload,
//     so every traced run carries all of them and any traced run can be
//     compared with any other.

import (
	"os"
	"strconv"
	"time"
)

var perLayer = []metricDef{
	// internal/sim
	{"sim.sched.rearm_ns_op", "ns"},
	{"sim.pool.run_ns_op", "ns"},
	{"sim.wake.arms", "count"},
	{"sim.wake.fires", "count"},
	{"sim.wake.fire_ratio", "ratio"},
	// internal/mem, cache, sm, icnt, mempart, dram
	{"mem.coalesce_ns_op", "ns"},
	{"cache.access_ns_op", "ns"},
	{"cache.l1.hit_ratio", "ratio"},
	{"cache.l2.hit_ratio", "ratio"},
	{"sm.tick_ns_op", "ns"},
	{"sm.issue_stall.sb", "count"},
	{"sm.issue_stall.ldst", "count"},
	{"sm.issue_stall.empty", "count"},
	{"icnt.tick_ns_op", "ns"},
	{"icnt.inject_stalls", "count"},
	{"mempart.tick_ns_op", "ns"},
	{"dram.tick_ns_op.rowhit", "ns"},
	{"dram.tick_ns_op.rowconflict", "ns"},
	{"dram.row_hit_ratio", "ratio"},
	// internal/gpu
	{"gpu.memsub_step_ns_cycle.load002", "ns"},
	{"gpu.memsub_step_ns_cycle.load04", "ns"},
	{"gpu.new_ms", "ms"},
	{"gpu.step_ns_cycle.dense", "ns"},
	{"gpu.step_ns_cycle.idle", "ns"},
	{"gpu.stepped_share", "ratio"},
	{"gpu.host_ns_per_stepped_cycle", "ns"},
	{"gpu.event_cycles_per_s", "1/s"},
	{"gpu.tick_cycles_per_s", "1/s"},
	{"gpu.event_over_tick", "ratio"},
	{"gpu.par_speedup", "ratio"},
	// internal/kernels, core
	{"kernels.build_ms", "ms"},
	{"kernels.verify_ms", "ms"},
	{"core.tracker_overhead_pct", "%"},
	{"core.report_ms", "ms"},
	{"core.static_ms", "ms"},
	{"core.loaded_ms", "ms"},
	{"core.table1_max_err_pct", "%"},
	// internal/runner
	{"runner.key_ns_op", "ns"},
	{"runner.grid_expand_ns_job", "ns"},
	{"runner.export_ms", "ms"},
	{"runner.job_ms.static", "ms"},
	{"runner.job_ms.dynamic", "ms"},
	{"runner.job_ms.loaded", "ms"},
	{"runner.job_ms.occupancy", "ms"},
	{"runner.parallel_eff", "ratio"},
	// internal/service
	{"service.cache.put_us", "us"},
	{"service.cache.get_hit_us", "us"},
	{"service.cache.get_miss_us", "us"},
	{"service.station.submit_dedup_us", "us"},
	{"service.station.submit_cachehit_us", "us"},
	{"service.station.do_miss_ms", "ms"},
	{"service.station.exec_ms", "ms"},
	{"service.station.queue_wait_ms", "ms"},
	{"service.server.handler_us.submit", "us"},
	{"service.server.handler_us.status", "us"},
	{"service.server.handler_us.result", "us"},
	{"service.http.submit_ms", "ms"},
	{"service.http.status_ms", "ms"},
	{"service.http.result_ms", "ms"},
	{"service.client.polls_per_job", "ratio"},
	{"service.cold.poll_slop_ms", "ms"},
	{"service.coord.forward_ms", "ms"},
	{"service.coord.overhead_ms.first", "ms"},
	{"service.coord.overhead_ms.repeat", "ms"},
	{"service.hot.first_touch_share", "ratio"},
	{"service.dedup_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.open.p50_ms.r500", "ms"},
	{"service.open.p50_ms.r1000", "ms"},
	{"service.open.p50_ms.r2000", "ms"},
	{"service.open.p95_ms.r500", "ms"},
	{"service.open.p95_ms.r1000", "ms"},
	{"service.open.p95_ms.r2000", "ms"},
	{"service.open.gen_late_ms", "ms"},
	// internal/metrics
	{"metrics.scrape_ms", "ms"},
	{"metrics.lint_ms", "ms"},
	// the harness itself
	{"harness.cpu_ms_per_job", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.build_s", "s"},
}

// nsPerOp times batches of n calls of op for about budget and returns
// the median nanoseconds per call. The first batch warms and is dropped.
func nsPerOp(budget time.Duration, n int, op func(i int)) float64 {
	batch := func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	batch()
	var samples []float64
	for begin := time.Now(); len(samples) < 3 || time.Since(begin) < budget; {
		samples = append(samples, batch())
	}
	return median(samples)
}

// msOf returns the median duration of reps calls of fn, in milliseconds.
func msOf(reps int, fn func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = time.Since(t0).Seconds() * 1000
	}
	return median(samples)
}

// ledger takes every direct-call measurement. When one cannot run, the
// traced run fails rather than print a number it did not take.
func ledger(e *env, set func(string, float64)) error {
	budget := 40 * time.Millisecond
	if e.smoke {
		budget = time.Millisecond
	}
	ledgerSim(e, budget, set)
	if err := ledgerCore(e, set); err != nil {
		return err
	}
	if err := ledgerService(e, set); err != nil {
		return err
	}
	// run.sh times the build and hands the figure over; a binary started
	// by hand did not build anything.
	if s, err := strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64); err == nil {
		set("harness.build_s", s)
	}
	return nil
}
