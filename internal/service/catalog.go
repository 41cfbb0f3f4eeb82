package service

import (
	"gpulat/internal/config"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
)

// ArchInfo is one selectable architecture preset.
type ArchInfo struct {
	Name       string `json:"name"`
	SMs        int    `json:"sms"`
	Partitions int    `json:"partitions"`
}

// CatalogInfo is the machine-readable catalog of everything a job spec
// may name: `gpulat list -json` prints it and the server exposes it at
// /v1/catalog, so clients can discover and validate specs without
// hardcoding the simulator's vocabulary.
type CatalogInfo struct {
	Version        string     `json:"version"`
	Kinds          []string   `json:"kinds"`
	Architectures  []ArchInfo `json:"architectures"`
	Workloads      []string   `json:"workloads"`
	Engines        []string   `json:"engines"`
	WarpSchedulers []string   `json:"warp_schedulers"`
	DRAMSchedulers []string   `json:"dram_schedulers"`
	Placements     []string   `json:"placements"`
}

// Catalog assembles the catalog from the authoritative registries.
func Catalog() CatalogInfo {
	info := CatalogInfo{
		Version: Version(),
		Kinds: []string{
			string(runner.KindDynamic), string(runner.KindStatic),
			string(runner.KindChase), string(runner.KindLoaded),
			string(runner.KindOccupancy), string(runner.KindCoRun),
		},
		Workloads:      append([]string{"bfs"}, kernels.CatalogNames()...),
		Engines:        sim.EngineNames(),
		WarpSchedulers: config.WarpSchedNames(),
		DRAMSchedulers: config.DRAMSchedNames(),
		Placements:     sched.PlacementNames(),
	}
	for _, name := range config.Names() {
		cfg, _ := config.ByName(name)
		info.Architectures = append(info.Architectures, ArchInfo{
			Name: name, SMs: cfg.NumSMs, Partitions: cfg.NumPartitions,
		})
	}
	return info
}
