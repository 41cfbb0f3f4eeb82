// Package gpulat reproduces "On Latency in GPU Throughput
// Microarchitectures" (Andersch, Lucas, Álvarez-Mesa, Juurlink; ISPASS
// 2015) as a self-contained Go library.
//
// The paper studies memory latency in NVIDIA GPUs two ways: statically,
// by pointer-chase microbenchmarking four GPU generations to obtain the
// per-level latencies of the global memory pipeline (Table I); and
// dynamically, by instrumenting the GPGPU-Sim timing simulator to break
// every memory request's lifetime into pipeline-stage components
// (Figure 1) and to classify load latency as hidden or exposed
// (Figure 2). Because both methodologies need hardware or a C++
// simulator, this module implements the whole substrate in Go: a
// cycle-level GPU timing simulator (SIMT cores, caches with MSHRs, a
// crossbar interconnect, memory partitions, and a banked DRAM model with
// FR-FCFS/FCFS scheduling), architecture presets calibrated to the
// paper's Table I, the microbenchmarks and workloads, and the latency
// analyses themselves.
//
// # Quick start
//
//	cfg, _ := gpulat.Preset("GF100")
//	res, _ := gpulat.RunBFS(cfg, gpulat.BFSOptions{Vertices: 1 << 13})
//	res.Breakdown(48).Render(os.Stdout) // Figure 1
//	res.Exposure(24).Render(os.Stdout)  // Figure 2
//
// The cmd/gpulat command regenerates every table and figure of the
// paper, and `gpulat bench-suite -j N` runs the whole reproduction grid
// on the parallel experiment runner; see README.md for the experiment
// index and the runner's determinism contract.
//
// # Architecture
//
// The implementation is seventeen internal packages in a strict layering,
// hardware at the bottom and the service layer at the top:
//
//	sim               clocks, latency queues, calendars, the documented
//	                  NextEvent horizon contract (doc.go), and the subscriber
//	                  Scheduler the event engine arms wakes on
//	isa               the small SIMT instruction set and CFG builder
//	warp, mem         per-warp execution state; memory request types
//	sm                SIMT cores: warp schedulers (LRR/GTO), L1+MSHRs,
//	                  the LDST pipeline, release-time scoreboards
//	cache, dram       the cache model; banked DRAM with FR-FCFS/FCFS
//	icnt, mempart     crossbar interconnect; memory partitions
//	gpu               assembles SMs x partitions x crossbar into a
//	                  device; drives it with the cycle-driven reference
//	                  loop or the subscriber-calendar event loop, which
//	                  ticks only due components yet stays byte-identical
//	sched             streams, the block dispatcher, placement policies
//	config            presets calibrated to Table I; ablation overrides
//	kernels           the workload catalog, BFS, the CoRun combinator
//	core              the paper's methodology: static chase, dynamic
//	                  instrumentation, breakdown/exposure reports
//	runner            grids -> jobs -> bounded worker pool -> ResultSet,
//	                  plus Job.Key (the canonical job content hash) and
//	                  PartitionJobs, deterministic key-hash sharding
//	service           simulation-as-a-service: the content-addressed
//	                  result cache, in-flight dedup, HTTP server/client,
//	                  and the sharding Coordinator — a consistent-hash
//	                  pool of backend serves with health probing,
//	                  per-backend circuit state, and re-route on failure
//	stats             summaries, histograms, tables, and the comparable
//	                  JSON encoding determinism gates diff
//	metrics           zero-dependency Prometheus instruments (counters,
//	                  gauges, histograms, scrape-time collectors), the
//	                  text exposition writer, and a parser + format
//	                  validator; backs the servers' /metrics endpoint,
//	                  simrun -trace-sim, and the bench/ harness's scrapes
//
// A job flows top-down: the CLI (or a service client) builds a
// runner.Grid; the runner expands it deterministically and executes
// each job by resolving a config preset, building kernels inputs, and
// running them through core on a gpu device ticked (or fast-forwarded)
// by sim. Metrics come back as a ResultSet whose exports are
// byte-identical across job-level worker counts, engines, cache
// temperature, and service topology (direct, single serve, or a sharded
// coordinator — even one that loses a backend mid-grid) — the property
// every `make *-determinism` CI gate pins.
//
// # Sharded service
//
// `gpulat serve -backends host:port,...` runs the service as a
// Coordinator over a pool of stock `gpulat serve` backends. Jobs route
// by consistent hashing on their JobKey, so each backend's persistent
// cache keeps answering the keys it owns across restarts and pool
// changes; a failed backend's circuit opens after consecutive probe or
// call failures and its live keys re-route to the survivors. The pool
// is elastic: backends join and leave at runtime under an
// epoch-versioned ring (`gpulat backends`, `serve -join`), joiners are
// warmed by cache transfer instead of recompute, and `serve -journal`
// write-ahead journals in-flight grids across coordinator crashes.
// Figure 2's
// exposure report renders half-open latency buckets — [lo,hi), last
// bucket inclusive — so a boundary load belongs to exactly one bucket.
package gpulat
