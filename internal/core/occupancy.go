package core

import (
	"fmt"
	"io"

	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/stats"
)

// OccupancyPoint is one step of the latency-hiding sweep: how much load
// latency stays exposed as warp-level parallelism grows.
type OccupancyPoint struct {
	// MaxWarps is the per-SM resident warp limit imposed for the run.
	MaxWarps int
	// Cycles is the workload runtime; IPC the achieved throughput.
	Cycles uint64
	IPC    float64
	// ExposedPct is the overall exposed share of load latency.
	ExposedPct float64
	// MeanLoadLatency is the mean instruction-visible load latency.
	MeanLoadLatency float64
}

// OccupancySweep reruns a workload builder while limiting the SM's
// resident warps, quantifying the paper's central mechanism: latency
// hiding improves with thread-level parallelism, but for memory-bound
// workloads it saturates long before the latency is covered. The builder
// is invoked fresh per step so runs are independent. Every warp limit
// must still fit one block of the workload (limit >= ceil(blockDim/32)).
func OccupancySweep(cfg gpu.Config, warpLimits []int, build func() (*kernels.MultiKernel, error)) ([]OccupancyPoint, error) {
	var out []OccupancyPoint
	for _, w := range warpLimits {
		if w < 1 || w > cfg.SM.MaxWarps {
			return nil, fmt.Errorf("core: warp limit %d outside 1..%d", w, cfg.SM.MaxWarps)
		}
		c := cfg
		c.SM.MaxWarps = w
		if blocks := (w + 3) / 4; c.SM.MaxBlocks > blocks {
			// Keep block slots proportional so tiny warp budgets are not
			// spread across many partially-filled blocks.
			c.SM.MaxBlocks = blocks
		}
		mk, err := build()
		if err != nil {
			return nil, err
		}
		res, err := RunDynamicMulti(c, mk)
		if err != nil {
			return nil, fmt.Errorf("occupancy %d warps: %w", w, err)
		}
		out = append(out, OccupancyPoint{
			MaxWarps:        w,
			Cycles:          uint64(res.Cycles),
			IPC:             res.IPC(),
			ExposedPct:      res.Exposure(1).OverallExposedPct(),
			MeanLoadLatency: res.Tracker.MeanLoadLatency(),
		})
	}
	return out, nil
}

// RenderOccupancy writes the sweep as a table with an exposure bar.
func RenderOccupancy(w io.Writer, workload, arch string, points []OccupancyPoint) {
	fmt.Fprintf(w, "Latency hiding vs occupancy — %s on %s\n", workload, arch)
	tb := stats.NewTable("warps/SM", "cycles", "IPC", "mean load lat", "exposed%", "exposure")
	for _, p := range points {
		tb.AddRow(p.MaxWarps, p.Cycles, fmt.Sprintf("%.3f", p.IPC),
			p.MeanLoadLatency, p.ExposedPct, stats.Bar(p.ExposedPct/100, 20))
	}
	tb.Render(w)
}
