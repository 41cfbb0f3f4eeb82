package runner

import (
	"context"
	"fmt"
	"math"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

// Options carries the per-kind experiment parameters and config
// overrides of one Job. Zero values select the experiment defaults, so
// an empty Options is a valid paper-default job. No field sizes a
// report's buckets: a job's metrics are totals, which no bucket count
// changes, so a bucket count renders a payload and stays out of the key.
type Options struct {
	// Label tags the variant for reports ("GTO", "mshr=8", ...).
	Label string `json:"label,omitempty"`
	// Seed, when non-zero, pins the job seed instead of the grid-derived
	// stream (ablation variants that must share an input).
	Seed uint64 `json:"seed,omitempty"`
	// Overrides are architectural knob changes applied to the preset.
	Overrides config.Overrides `json:"overrides,omitzero"`

	// TestScale shrinks workload inputs to unit-test size (fast smoke
	// sweeps and CI); the default is the paper's experiment scale.
	TestScale bool `json:"test_scale,omitempty"`
	// Vertices sizes the BFS graph (default 1<<13).
	Vertices int `json:"vertices,omitempty"`
	// BlockDim is threads per block for BFS (default 128).
	BlockDim int `json:"block_dim,omitempty"`

	// Accesses is the timed loads per pointer-chase point.
	Accesses int `json:"accesses,omitempty"`
	// Stride and Footprint define a KindChase point, in bytes.
	Stride    uint32 `json:"stride,omitempty"`
	Footprint uint32 `json:"footprint,omitempty"`

	// OfferedLoad is the KindLoaded injection probability per port-cycle.
	OfferedLoad float64 `json:"offered_load,omitempty"`
	// Cycles bounds a KindLoaded measurement (default 50_000).
	Cycles int `json:"cycles,omitempty"`

	// WarpLimit is the KindOccupancy resident-warp cap.
	WarpLimit int `json:"warp_limit,omitempty"`

	// KernelB names the second workload of a KindCoRun pair (Job.Kernel
	// names the first); the placement policy under ablation rides in
	// Overrides.Placement like every other architectural knob.
	KernelB string `json:"kernel_b,omitempty"`
}

func (o Options) scale() kernels.Scale {
	if o.TestScale {
		return kernels.ScaleTest
	}
	return kernels.ScaleExperiment
}

func (o Options) vertices() int {
	if o.Vertices > 0 {
		return o.Vertices
	}
	if o.TestScale {
		return 1 << 9
	}
	return 1 << 13
}

func (o Options) blockDim() int {
	if o.BlockDim > 0 {
		return o.BlockDim
	}
	return 128
}

// Execute runs one job to completion and captures any failure in the
// result rather than aborting the sweep. It is the Runner's default
// executor and is safe for concurrent use: every job builds a fresh
// device from its resolved configuration.
func Execute(ctx context.Context, job Job) Result {
	res := Result{Job: job}
	cfg, err := resolveConfig(job)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	switch job.Kind {
	case KindDynamic:
		err = execDynamic(&res, cfg, job)
	case KindStatic:
		err = execStatic(&res, cfg, job)
	case KindChase:
		err = execChase(&res, cfg, job)
	case KindLoaded:
		err = execLoaded(&res, cfg, job)
	case KindOccupancy:
		err = execOccupancy(&res, cfg, job)
	case KindCoRun:
		err = execCoRun(&res, cfg, job)
	default:
		err = fmt.Errorf("runner: unknown job kind %q", job.Kind)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func resolveConfig(job Job) (gpu.Config, error) {
	cfg, err := config.ByNameOrFile(job.Arch)
	if err != nil {
		return cfg, err
	}
	cfg, err = job.Options.Overrides.Apply(cfg)
	if err != nil {
		return cfg, err
	}
	// An empty Engine inherits the config's setting (a file:<path>
	// config may pin one); a named engine overrides it.
	if job.Engine != "" {
		cfg.Engine, err = sim.ParseEngine(job.Engine)
	}
	return cfg, err
}

// RunWorkload executes job's workload with instrumentation (the
// KindDynamic payload builder, exported for callers that need the full
// DynamicResult rather than scalar metrics); opts configure its tracker,
// core.KeepRecords to keep every load record.
func RunWorkload(cfg gpu.Config, job Job, opts ...core.TrackerOption) (*core.DynamicResult, error) {
	if job.Kernel == "bfs" {
		mk, err := buildBFS(job)
		if err != nil {
			return nil, err
		}
		return core.RunDynamicMulti(cfg, mk, opts...)
	}
	wl, err := kernels.NewByName(job.Kernel, job.Options.scale(), job.Seed)
	if err != nil {
		return nil, err
	}
	return core.RunDynamic(cfg, wl, opts...)
}

// bfsAttachEdges is the edges each new vertex of a job's scale-free
// graph attaches; the graph needs more vertices than that.
const bfsAttachEdges = 4

// buildBFS generates the job's scale-free graph and the BFS host loop
// over it.
func buildBFS(job Job) (*kernels.MultiKernel, error) {
	n := job.Options.vertices()
	if n <= bfsAttachEdges {
		return nil, fmt.Errorf("runner: bfs needs more than %d vertices, got %d", bfsAttachEdges, n)
	}
	g := kernels.GenScaleFree(n, bfsAttachEdges, job.Seed)
	return kernels.BFS(kernels.BFSConfig{Graph: g, Source: 0, BlockDim: job.Options.blockDim()})
}

func execDynamic(res *Result, cfg gpu.Config, job Job) error {
	dr, err := RunWorkload(cfg, job)
	if err != nil {
		return err
	}
	// The metrics are totals, which no bucket count changes: one
	// bucket each.
	sum := dr.LoadSummary()
	bd := dr.Breakdown(1)
	ex := dr.Exposure(1)
	res.add("cycles", float64(dr.Cycles))
	res.add("instructions", float64(dr.Instructions))
	res.add("ipc", dr.IPC())
	res.add("launches", float64(dr.Launches))
	res.add("loads", float64(sum.Count))
	res.add("load_lat_mean", sum.Mean)
	res.add("load_lat_p50", sum.P50)
	res.add("load_lat_p90", sum.P90)
	res.add("load_lat_p99", sum.P99)
	res.add("l1_to_icnt_pct", bd.TotalPct(core.StageL1ToICNT))
	res.add("dram_queue_pct", bd.TotalPct(core.StageDRAMQueue))
	res.add("exposed_pct", ex.OverallExposedPct())
	res.add("mostly_exposed_pct", ex.MostlyExposedPct())
	// A finished job keeps the device's counters, not its simulator.
	dr.Device.Release()
	res.Payload = dr
	return nil
}

func execStatic(res *Result, cfg gpu.Config, job Job) error {
	opt := core.DefaultStaticOptions()
	if job.Options.Accesses > 0 {
		opt.Accesses = job.Options.Accesses
	}
	sr, err := core.MeasureStatic(cfg, opt)
	if err != nil {
		return err
	}
	res.Payload = sr
	if sr.HasL1() {
		res.add("l1_cycles", sr.L1)
	}
	if sr.HasL2() {
		res.add("l2_cycles", sr.L2)
	}
	res.add("dram_cycles", sr.DRAM)
	return nil
}

func execChase(res *Result, cfg gpu.Config, job Job) error {
	o := job.Options
	if o.Stride == 0 || o.Footprint == 0 {
		return fmt.Errorf("runner: chase job needs stride and footprint")
	}
	opt := core.DefaultStaticOptions()
	if o.Accesses > 0 {
		opt.Accesses = o.Accesses
	}
	pts, err := core.Sweep(cfg, []uint32{o.Stride}, []uint32{o.Footprint}, opt)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("runner: footprint %d smaller than stride %d", o.Footprint, o.Stride)
	}
	res.Payload = pts[0]
	res.add("stride", float64(pts[0].Stride))
	res.add("footprint", float64(pts[0].Footprint))
	res.add("mean_lat", pts[0].MeanLat)
	return nil
}

func execLoaded(res *Result, cfg gpu.Config, job Job) error {
	o := job.Options
	if o.OfferedLoad <= 0 {
		return fmt.Errorf("runner: loaded job needs a positive offered load")
	}
	lopt := core.LoadedOptions{Seed: job.Seed}
	if o.Cycles > 0 {
		lopt.Cycles = sim.Cycle(o.Cycles)
	}
	pts, err := core.LoadedLatency(cfg, []float64{o.OfferedLoad}, lopt)
	if err != nil {
		return err
	}
	p := pts[0]
	res.Payload = p
	res.add("offered_load", p.OfferedLoad)
	res.add("achieved_load", p.AchievedLoad)
	res.add("mean_lat", p.MeanLatency)
	res.add("p99_lat", p.P99Latency)
	res.add("completed", float64(p.Completed))
	return nil
}

func execOccupancy(res *Result, cfg gpu.Config, job Job) error {
	o := job.Options
	if o.WarpLimit <= 0 {
		return fmt.Errorf("runner: occupancy job needs a positive warp limit")
	}
	build := func() (*kernels.MultiKernel, error) { return buildBFS(job) }
	pts, err := core.OccupancySweep(cfg, []int{o.WarpLimit}, build)
	if err != nil {
		return err
	}
	p := pts[0]
	res.Payload = p
	res.add("warps_per_sm", float64(p.MaxWarps))
	res.add("cycles", float64(p.Cycles))
	res.add("ipc", p.IPC)
	res.add("exposed_pct", p.ExposedPct)
	res.add("load_lat_mean", p.MeanLoadLatency)
	return nil
}

// execCoRun co-schedules Job.Kernel and Options.KernelB on independent
// streams under the selected placement policy and reports per-kernel
// metrics (prefixed a_/b_ in launch order) next to the device totals.
// Each side's inputs get an independent seed stream derived from the
// job seed, so a workload co-run against itself still sees distinct
// data.
func execCoRun(res *Result, cfg gpu.Config, job Job) error {
	o := job.Options
	if job.Kernel == "" || o.KernelB == "" {
		return fmt.Errorf("runner: corun job needs two kernels (kernel and kernel_b)")
	}
	pair, err := kernels.CoRun(job.Kernel, o.KernelB, o.scale(), JobSeed(job.Seed, 0), JobSeed(job.Seed, 1))
	if err != nil {
		return err
	}
	cr, err := core.RunCoRun(cfg, pair)
	if err != nil {
		return err
	}
	res.Payload = cr
	res.add("cycles", float64(cr.Cycles))
	res.add("kernels_launched", float64(cr.Device.KernelsLaunched))
	res.add("blocks_dispatched", float64(cr.Device.BlocksDispatch))
	for i, k := range cr.Kernels {
		p := string('a' + rune(i))
		res.add(p+"_cycles_resident", float64(k.CyclesResident))
		res.add(p+"_blocks", float64(k.BlocksDispatched))
		res.add(p+"_loads", float64(k.Loads))
		res.add(p+"_load_lat_mean", k.LoadLat.Mean)
		res.add(p+"_load_lat_p99", k.LoadLat.P99)
		res.add(p+"_exposed_pct", k.ExposedPct)
		res.add(p+"_mostly_exposed_pct", k.MostlyExposedPct)
	}
	return nil
}

// add appends a metric, dropping non-finite values (a NaN marks a level
// an architecture does not have; JSON cannot carry it anyway).
func (r *Result) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v})
}
