// Quickstart: build a Fermi-generation GPU, run a vector-add kernel on
// it with full latency instrumentation, and print the run summary plus
// the mean load latency — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"gpulat"
)

func main() {
	cfg, err := gpulat.Preset("GF106")
	if err != nil {
		log.Fatal(err)
	}

	wl, err := gpulat.NewWorkload("vecadd", gpulat.ScaleTest, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := gpulat.RunWorkloadOn(cfg, wl)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %s on %s\n", res.Workload, res.Arch)
	fmt.Printf("  cycles:       %d\n", res.Cycles)
	fmt.Printf("  instructions: %d (IPC %.2f)\n", res.Instructions, res.IPC())

	fmt.Printf("  global loads: %d, mean latency %.1f cycles\n",
		res.Tracker.Len(), res.Tracker.MeanLoadLatency())

	er := res.Exposure(16)
	fmt.Printf("  exposed latency: %.1f%% of load latency could not be\n"+
		"                   covered by other warps' work — the paper's\n"+
		"                   point: even throughput-oriented GPUs feel latency\n",
		er.OverallExposedPct())
}
