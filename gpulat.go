package gpulat

import (
	"fmt"
	"io"
	"net/http"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
	"gpulat/internal/sched"
	"gpulat/internal/service"
	"gpulat/internal/sim"
)

// Re-exported core types. These aliases form the stable public surface;
// the implementation lives in internal packages.
type (
	// Config is a full device configuration (SMs, caches, networks,
	// DRAM). Obtain one from Preset and adjust fields as needed.
	Config = gpu.Config
	// GPU is a simulated device instance.
	GPU = gpu.GPU
	// Cycle is simulated time in core clock cycles.
	Cycle = sim.Cycle
	// Workload couples a kernel with input setup and verification.
	Workload = kernels.Workload
	// MultiKernel is a host-loop workload such as BFS.
	MultiKernel = kernels.MultiKernel
	// StaticResult is one architecture's Table I row.
	StaticResult = core.StaticResult
	// Breakdown is the Figure 1 per-bucket stage breakdown.
	Breakdown = core.BreakdownReport
	// Exposure is the Figure 2 exposed/hidden analysis.
	Exposure = core.ExposureReport
	// DynamicResult is an instrumented workload run.
	DynamicResult = core.DynamicResult
	// Tracker is the latency instrumentation observer. It folds each
	// load into per-latency sums as it retires, and every report
	// (Breakdown, Exposure, LoadSummary, ...) reads them in place.
	Tracker = core.Tracker
	// SweepPoint is one cell of the stride×footprint latency surface.
	SweepPoint = core.SweepPoint
	// Graph is a CSR graph for the BFS workload.
	Graph = kernels.Graph
	// Stage is one of the eight Figure 1 latency components.
	Stage = core.Stage
	// LoadedPoint is one step of the loaded-latency curve.
	LoadedPoint = core.LoadedPoint
	// OccupancyPoint is one step of the latency-hiding sweep.
	OccupancyPoint = core.OccupancyPoint
	// Level is a latency plateau detected in a chase sweep.
	Level = core.Level

	// Job is one independent experiment execution for the parallel
	// runner (architecture × workload × options × seed).
	Job = runner.Job
	// JobOptions carries a Job's per-kind parameters and overrides.
	JobOptions = runner.Options
	// Grid expands an experiment sweep into a deterministic job list.
	Grid = runner.Grid
	// Runner executes job lists on a bounded worker pool; results are
	// identical for any worker count.
	Runner = runner.Runner
	// ResultSet aggregates a sweep's results with JSON/CSV export.
	ResultSet = runner.ResultSet
	// ConfigOverrides are the ablation knobs a Job can apply to a
	// preset (schedulers, MSHRs, warp limit).
	ConfigOverrides = config.Overrides
)

// Experiment kinds for Job and Grid.
const (
	KindDynamic   = runner.KindDynamic
	KindStatic    = runner.KindStatic
	KindChase     = runner.KindChase
	KindLoaded    = runner.KindLoaded
	KindOccupancy = runner.KindOccupancy
	KindCoRun     = runner.KindCoRun
)

// Streams and concurrent kernels.
type (
	// Placement selects the block dispatcher's policy for co-resident
	// streams on a Config.
	Placement = sched.Placement
	// KernelLaunch is one launched kernel's live dispatch state
	// (returned by GPU.Enqueue).
	KernelLaunch = sched.KernelState
	// CoRunPair couples two catalog workloads with disjoint memory for
	// concurrent execution.
	CoRunPair = kernels.CoRunPair
	// CoRunResult is a concurrent-kernel interference run with
	// per-kernel latency-exposure attribution.
	CoRunResult = core.CoRunResult
	// CoKernelResult is one kernel's share of a co-run.
	CoKernelResult = core.CoKernelResult
)

// The block placement policies for concurrent kernels: shared
// breadth-first interleaving (default) and spatial SM partitioning.
const (
	PlacementShared  = sched.PlacementShared
	PlacementSpatial = sched.PlacementSpatial
)

// NewCoRun builds a co-run pair from two catalog workload names; the
// second workload's data regions are rebased so the pair never overlaps.
func NewCoRun(nameA, nameB string, scale Scale, seedA, seedB uint64) (*CoRunPair, error) {
	return kernels.CoRun(nameA, nameB, scale, seedA, seedB)
}

// RunCoRun co-schedules a pair on independent streams under
// cfg.Placement and reports per-kernel residency, latency, and exposure.
// Per-bucket views of a kernel's exposure come from the result's Tracker
// (KernelExposure).
func RunCoRun(cfg Config, pair *CoRunPair) (*CoRunResult, error) {
	return core.RunCoRun(cfg, pair)
}

// The simulation-as-a-service layer: a persistent content-addressed
// result cache, an in-flight-deduplicating job station, and the HTTP
// server/client pair behind `gpulat serve` / `gpulat submit`.
type (
	// JobKey is a Job's canonical content hash (see Job.Key): equal keys
	// guarantee equal metrics, making it a safe memoization handle.
	JobKey = runner.JobKey
	// ResultCache is the disk-backed content-addressed result store.
	ResultCache = service.Cache
	// CacheStats are a ResultCache's hit/miss/evict counters.
	CacheStats = service.CacheStats
	// Station deduplicates and executes jobs on a bounded queue and
	// worker pool, writing successes through to its cache.
	Station = service.Station
	// StationConfig sizes a Station.
	StationConfig = service.StationConfig
	// ServiceClient talks to a served simulation service.
	ServiceClient = service.Client
	// ServiceStatsz is the /v1/statsz counters document.
	ServiceStatsz = service.Statsz
	// JobService is the execution tier behind the HTTP server: a Station
	// (single node) or a Coordinator (sharded).
	JobService = service.JobService
	// Coordinator shards jobs over a pool of backend services by
	// consistent hashing on JobKey, with health probing, per-backend
	// circuit state, and re-route + retry on backend failure.
	Coordinator = service.Coordinator
	// CoordinatorConfig sizes a Coordinator.
	CoordinatorConfig = service.CoordinatorConfig
	// BackendStatus is one backend's routing/health view (/v1/backendsz).
	BackendStatus = service.BackendStatus
)

// OpenResultCache opens the content-addressed result store rooted at
// dir ("" selects ~/.cache/gpulat) under the build's scheme tag.
func OpenResultCache(dir string, maxEntries int) (*ResultCache, error) {
	return service.OpenCache(dir, maxEntries)
}

// NewStation builds and starts a deduplicating job station (cache may
// be nil); Close drains it.
func NewStation(cache *ResultCache, cfg StationConfig) *Station {
	return service.NewStation(cache, cfg)
}

// NewServiceHandler returns the simulation service's HTTP handler
// (POST /v1/jobs, GET /v1/jobs/{key}, /v1/results/{key}, /v1/healthz,
// /v1/statsz, /v1/backendsz, /v1/catalog) over a Station or a
// Coordinator. A ticket or status that is terminal carries the job's
// result, so a finished job costs a client one round trip. cache may be
// nil (a coordinator's caches live on its backends).
func NewServiceHandler(svc JobService, cache *ResultCache) http.Handler {
	return service.NewServer(svc, cache)
}

// NewCoordinator builds and starts the sharded service tier over the
// given backend addresses; serve its handler with NewServiceHandler.
// Close stops the health prober and fails outstanding jobs.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return service.NewCoordinator(cfg)
}

// NewServiceClient returns a client for the service at base, e.g.
// "http://127.0.0.1:8091".
func NewServiceClient(base string) *ServiceClient { return service.NewClient(base) }

// CachedExec wraps an executor (nil = the default) with a result cache;
// install it as Runner.Exec to memoize sweeps in-process.
func CachedExec(cache *ResultCache, exec runner.ExecFunc) runner.ExecFunc {
	return service.CachedExec(cache, exec)
}

// Engine selects the top-level simulation loop on a Config.
type Engine = sim.Engine

// The two simulation loops: the event-driven kernel (default), which
// fast-forwards across provably idle spans, and the cycle-driven
// reference it is byte-identical to.
const (
	EngineEvent = sim.EngineEvent
	EngineTick  = sim.EngineTick
)

// NewRunner builds a parallel experiment runner with the given worker
// bound (<=0 selects GOMAXPROCS).
func NewRunner(workers int) *Runner { return runner.New(workers) }

// The eight latency components of the paper's Figure 1.
const (
	StageSMBase     = core.StageSMBase
	StageL1ToICNT   = core.StageL1ToICNT
	StageICNTToROP  = core.StageICNTToROP
	StageROPToL2Q   = core.StageROPToL2Q
	StageL2QToDRAMQ = core.StageL2QToDRAMQ
	StageDRAMQueue  = core.StageDRAMQueue
	StageDRAMAccess = core.StageDRAMAccess
	StageFetch2SM   = core.StageFetch2SM
)

// LoadedLatency measures the memory system's latency under synthetic
// load (the idle→saturated curve bridging the paper's static and dynamic
// analyses).
func LoadedLatency(cfg Config, offered []float64) ([]LoadedPoint, error) {
	return core.LoadedLatency(cfg, offered, core.LoadedOptions{})
}

// DetectLevels reads the memory-hierarchy plateaus out of a sweep.
func DetectLevels(points []SweepPoint, stride uint32) []Level {
	return core.DetectLevels(points, stride, 0.08)
}

// OccupancySweep reruns the BFS experiment while limiting resident warps
// per SM — the latency-hiding saturation study.
func OccupancySweep(cfg Config, warpLimits []int, opt BFSOptions) ([]OccupancyPoint, error) {
	return core.OccupancySweep(cfg, warpLimits, func() (*MultiKernel, error) {
		return NewBFS(opt)
	})
}

// RenderOccupancy writes an occupancy sweep as a table.
func RenderOccupancy(w io.Writer, workload, arch string, points []OccupancyPoint) {
	core.RenderOccupancy(w, workload, arch, points)
}

// RenderLoadedCurve writes a loaded-latency curve as a table.
func RenderLoadedCurve(w io.Writer, arch string, points []LoadedPoint) {
	core.RenderLoadedCurve(w, arch, points)
}

// Architectures lists the available presets in generation order:
// GT200 (Tesla), GF106/GF100 (Fermi), GK104 (Kepler), GM107 (Maxwell).
func Architectures() []string { return config.Names() }

// Preset returns the named architecture configuration.
func Preset(name string) (Config, error) {
	cfg, ok := config.ByName(name)
	if !ok {
		return Config{}, fmt.Errorf("gpulat: unknown architecture %q (have %v)", name, config.Names())
	}
	return cfg, nil
}

// NewGPU builds a device without instrumentation.
func NewGPU(cfg Config) *GPU { return gpu.New(cfg) }

// MeasureStatic reproduces one Table I row: the unloaded per-level
// latencies of the architecture's global memory pipeline, measured with
// the pointer-chase microbenchmark.
func MeasureStatic(cfg Config) (StaticResult, error) {
	return core.MeasureStatic(cfg, core.DefaultStaticOptions())
}

// RenderTableI writes the Table I reproduction for a set of results.
func RenderTableI(w io.Writer, rows []StaticResult) { core.TableI(w, rows) }

// Sweep measures the full stride×footprint pointer-chase surface.
func Sweep(cfg Config, strides, footprints []uint32) ([]SweepPoint, error) {
	return core.Sweep(cfg, strides, footprints, core.DefaultStaticOptions())
}

// BFSOptions parameterizes the paper's dynamic-analysis workload.
type BFSOptions struct {
	// Vertices is the graph size (default 1<<13).
	Vertices int
	// AttachEdges is the scale-free attachment count (default 4).
	AttachEdges int
	// Seed fixes the input graph.
	Seed uint64
	// BlockDim is threads per block (default 128).
	BlockDim int
	// Uniform selects a uniform random graph instead of scale-free.
	Uniform bool
}

func (o *BFSOptions) fill() {
	if o.Vertices == 0 {
		o.Vertices = 1 << 13
	}
	if o.AttachEdges == 0 {
		o.AttachEdges = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.BlockDim == 0 {
		o.BlockDim = 128
	}
}

// NewBFS builds the BFS workload used by Figures 1 and 2. A graph the
// generators cannot build — AttachEdges < 1, Vertices < 2, or a
// scale-free graph with no more Vertices than AttachEdges — is an error.
func NewBFS(opt BFSOptions) (*MultiKernel, error) {
	opt.fill()
	if opt.AttachEdges < 1 || opt.Vertices < 2 || (!opt.Uniform && opt.Vertices <= opt.AttachEdges) {
		return nil, fmt.Errorf("gpulat: bfs cannot build a graph of %d vertices with %d attach edges (uniform %v)",
			opt.Vertices, opt.AttachEdges, opt.Uniform)
	}
	var g *kernels.Graph
	if opt.Uniform {
		g = kernels.GenUniformRandom(opt.Vertices, opt.AttachEdges*2, opt.Seed)
	} else {
		g = kernels.GenScaleFree(opt.Vertices, opt.AttachEdges, opt.Seed)
	}
	return kernels.BFS(kernels.BFSConfig{Graph: g, Source: 0, BlockDim: opt.BlockDim})
}

// RunBFS executes the instrumented BFS experiment on cfg.
func RunBFS(cfg Config, opt BFSOptions) (*DynamicResult, error) {
	mk, err := NewBFS(opt)
	if err != nil {
		return nil, err
	}
	return core.RunDynamicMulti(cfg, mk)
}

// Workloads lists the catalog of single-kernel workloads usable with
// NewWorkload (the paper's "other workloads").
func Workloads() []string { return kernels.CatalogNames() }

// Scale selects workload input sizes.
type Scale = kernels.Scale

// Workload scales: ScaleTest for quick runs, ScaleExperiment for the
// paper's figure-sized inputs.
const (
	ScaleTest       = kernels.ScaleTest
	ScaleExperiment = kernels.ScaleExperiment
)

// NewWorkload builds a catalog workload at the given scale.
func NewWorkload(name string, scale Scale, seed uint64) (*Workload, error) {
	if seed == 0 {
		seed = 7
	}
	return kernels.NewByName(name, scale, seed)
}

// RunWorkloadOn executes a caller-built workload with instrumentation.
func RunWorkloadOn(cfg Config, wl *Workload) (*DynamicResult, error) {
	return core.RunDynamic(cfg, wl)
}
