package gpulat_test

import (
	"fmt"
	"log"
	"os"

	"gpulat"
)

// BFS over a scale-free graph on GF100, the paper's dynamic analysis
// (Figures 1 and 2; `gpulat fig1` and `gpulat fig2` draw them in full).
func ExampleRunBFS() {
	cfg, err := gpulat.Preset("GF100")
	if err != nil {
		log.Fatal(err)
	}
	res, err := gpulat.RunBFS(cfg, gpulat.BFSOptions{Vertices: 512})
	if err != nil {
		log.Fatal(err)
	}
	bd, ex := res.Breakdown(48), res.Exposure(24)
	fmt.Printf("%d cycles over %d kernel launches\n", res.Cycles, res.Launches)
	fmt.Printf("L1toICNT %.1f%%, DRAM(QtoSch) %.1f%% of request latency\n",
		bd.TotalPct(gpulat.StageL1ToICNT), bd.TotalPct(gpulat.StageDRAMQueue))
	fmt.Printf("%.1f%% of load latency exposed; %.1f%% of loads >50%% exposed\n",
		ex.OverallExposedPct(), ex.MostlyExposedPct())
	// Output:
	// 63696 cycles over 4 kernel launches
	// L1toICNT 0.1%, DRAM(QtoSch) 1.6% of request latency
	// 89.0% of load latency exposed; 99.9% of loads >50% exposed
}

// The stride×footprint pointer-chase surface behind Table I: the mean
// latency steps up as the footprint outgrows each cache level (`gpulat
// sweep` measures the whole surface).
func ExampleSweep() {
	cfg, err := gpulat.Preset("GF106")
	if err != nil {
		log.Fatal(err)
	}
	points, err := gpulat.Sweep(cfg, []uint32{128}, []uint32{8 << 10, 64 << 10, 4 << 20})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("stride %d, footprint %d: %.1f cycles\n", p.Stride, p.Footprint, p.MeanLat)
	}
	// Output:
	// stride 128, footprint 8192: 45.0 cycles
	// stride 128, footprint 65536: 310.0 cycles
	// stride 128, footprint 4194304: 678.5 cycles
}

// Latency hiding vs resident warps per SM (`gpulat ablate-occupancy`).
func ExampleOccupancySweep() {
	cfg, err := gpulat.Preset("GF100")
	if err != nil {
		log.Fatal(err)
	}
	points, err := gpulat.OccupancySweep(cfg, []int{4, 16}, gpulat.BFSOptions{Vertices: 2048})
	if err != nil {
		log.Fatal(err)
	}
	gpulat.RenderOccupancy(os.Stdout, "bfs", cfg.Name, points)
	// Output:
	// Latency hiding vs occupancy — bfs on GF100
	// warps/SM  cycles  IPC    mean load lat  exposed%  exposure
	// --------  ------  -----  -------------  --------  --------------------
	// 4         129133  0.450  85.4           89.5      ##################..
	// 16        127556  0.458  85.8           88.9      ##################..
}

// A latency-bound gather shares GF100 with a bandwidth-bound copy on
// independent streams, first on shared SMs, then on a spatial split of
// them (`gpulat corun -pairs gather:copy`).
func ExampleRunCoRun() {
	for _, placement := range []gpulat.Placement{gpulat.PlacementShared, gpulat.PlacementSpatial} {
		cfg, err := gpulat.Preset("GF100")
		if err != nil {
			log.Fatal(err)
		}
		cfg.Placement = placement
		pair, err := gpulat.NewCoRun("gather", "copy", gpulat.ScaleTest, 7, 8)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gpulat.RunCoRun(cfg, pair)
		if err != nil {
			log.Fatal(err)
		}
		a, b := res.Kernels[0], res.Kernels[1]
		fmt.Printf("%s %s: %d cycles; gather %.1f%% exposed, copy %.1f%% exposed\n",
			res.Pair, res.Placement, uint64(res.Cycles), a.ExposedPct, b.ExposedPct)
	}
	// Output:
	// gather+copy shared: 3701 cycles; gather 96.7% exposed, copy 96.2% exposed
	// gather+copy spatial: 3856 cycles; gather 95.5% exposed, copy 96.9% exposed
}
