package main

// Seeded input generators. Every input of every workload derives from
// the -seed flag through the streams below; the programs under test
// receive only the generated jobs, kernels and request streams, never
// the seed's origin. Equal seeds give byte-identical inputs.

import (
	"fmt"
	"math"
	"sort"

	"gpulat/internal/runner"
)

// Sub-stream indices: one independent stream per input family, so adding
// a draw to one generator never shifts another's inputs.
const (
	streamGrid = iota + 1
	streamDense
	streamSparse
	streamCold
	streamHot
	streamZipf
	streamLedger
)

// subSeed derives the index-th independent stream of seed (SplitMix64
// finalizer; never zero, because the kernels' generators remap zero).
func subSeed(seed uint64, index int) uint64 {
	if z := mix64(seed + (uint64(index)+1)*golden); z != 0 {
		return z
	}
	return golden
}

const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a SplitMix64 sequence generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// gridJobs mirrors the CLI's suiteJobs(false) — the full paper grid:
// Table I on four architectures, the Figure 1+2 BFS run, the six "other
// workloads", the DRAM-scheduler, warp-scheduler, MSHR and occupancy
// ablations, and the load curve (26 jobs) — with the suite's fixed input
// seeds (42, 7, 1) replaced by streams of seed. The experiment
// parameters are the suite's defaults.
func gridJobs(seed uint64) []runner.Job {
	bfsSeed := subSeed(subSeed(seed, streamGrid), 0)
	kernelSeed := subSeed(subSeed(seed, streamGrid), 1)
	loadSeed := subSeed(subSeed(seed, streamGrid), 2)

	labeled := func(section string, opts ...runner.Options) []runner.Options {
		for i := range opts {
			if opts[i].Label == "" {
				opts[i].Label = section
			} else {
				opts[i].Label = section + "/" + opts[i].Label
			}
		}
		return opts
	}
	var jobs []runner.Job
	add := func(g runner.Grid) { jobs = append(jobs, g.Jobs()...) }

	add(runner.Grid{Kind: runner.KindStatic,
		Archs:    []string{"GT200", "GF106", "GK104", "GM107"},
		Variants: labeled("table1", runner.Options{Accesses: 256})})
	add(runner.Grid{Kind: runner.KindDynamic, Archs: []string{"GF100"}, Kernels: []string{"bfs"},
		Variants: labeled("fig1+fig2", runner.Options{}), BaseSeed: bfsSeed, FixedSeed: true})
	add(runner.Grid{Kind: runner.KindDynamic, Archs: []string{"GF100"},
		Kernels:  []string{"vecadd", "spmv", "transpose", "histogram", "stencil2d", "reduce"},
		Variants: labeled("workloads", runner.Options{}), BaseSeed: kernelSeed, FixedSeed: true})

	var dram []runner.Options
	for _, s := range []string{"FR-FCFS", "FR-FCFS-cap", "FCFS"} {
		o := runner.Options{Label: s, OfferedLoad: 0.04, Cycles: 30_000}
		o.Overrides.DRAMSched = s
		dram = append(dram, o)
	}
	add(runner.Grid{Kind: runner.KindLoaded, Archs: []string{"GF100"},
		Variants: labeled("ablate-dram", dram...), BaseSeed: loadSeed, FixedSeed: true})

	var sched []runner.Options
	for _, s := range []string{"LRR", "GTO"} {
		o := runner.Options{Label: s}
		o.Overrides.WarpSched = s
		sched = append(sched, o)
	}
	add(runner.Grid{Kind: runner.KindDynamic, Archs: []string{"GF100"}, Kernels: []string{"bfs"},
		Variants: labeled("ablate-sched", sched...), BaseSeed: bfsSeed, FixedSeed: true})

	var mshr []runner.Options
	for _, n := range []int{4, 16, 64} {
		o := runner.Options{Label: fmt.Sprintf("mshr=%d", n)}
		o.Overrides.L1MSHRs = n
		mshr = append(mshr, o)
	}
	add(runner.Grid{Kind: runner.KindDynamic, Archs: []string{"GF100"}, Kernels: []string{"bfs"},
		Variants: labeled("ablate-mshr", mshr...), BaseSeed: bfsSeed, FixedSeed: true})

	var occ []runner.Options
	for _, w := range []int{4, 16, 48} {
		occ = append(occ, runner.Options{Label: fmt.Sprintf("warps=%d", w), WarpLimit: w})
	}
	add(runner.Grid{Kind: runner.KindOccupancy, Archs: []string{"GF100"},
		Variants: labeled("ablate-occupancy", occ...), BaseSeed: bfsSeed, FixedSeed: true})

	var load []runner.Options
	for _, l := range []float64{0.005, 0.02, 0.1, 0.4} {
		load = append(load, runner.Options{Label: fmt.Sprintf("load=%g", l), OfferedLoad: l})
	}
	add(runner.Grid{Kind: runner.KindLoaded, Archs: []string{"GF100"},
		Variants: labeled("load-curve", load...), BaseSeed: loadSeed, FixedSeed: true})
	return jobs
}

// chaseArch is the device the service workloads' jobs simulate: the
// paper's Fermi Table I part, the cheapest preset to construct, so a job
// costs about a millisecond and the service around it does the work.
const chaseArch = "GF106"

// chaseJobs generates n distinct cheap pointer-chase jobs: stride,
// footprint and access count are drawn from the stream, and a triple is
// never repeated, so every job has its own content key.
func chaseJobs(seed uint64, n int) []runner.Job {
	r := newRNG(seed)
	seen := make(map[[3]uint32]bool, n)
	jobs := make([]runner.Job, 0, n)
	for len(jobs) < n {
		stride := uint32(128) << r.intn(3)          // 128, 256, 512 B
		footprint := uint32(4096 + 128*r.intn(481)) // 4 KiB .. 64 KiB
		accesses := uint32(8 + r.intn(17))          // 8 .. 24 timed loads
		k := [3]uint32{stride, footprint, accesses}
		if seen[k] {
			continue
		}
		seen[k] = true
		jobs = append(jobs, runner.Job{
			Kind: runner.KindChase, Arch: chaseArch, Seed: 1,
			Options: runner.Options{Stride: stride, Footprint: footprint, Accesses: int(accesses)},
		})
	}
	return jobs
}

// zipfStream draws length ranks in [0, n) with P(k) ∝ 1/(k+1)^s by
// inverting the cumulative distribution: a few hot ranks dominate and a
// long tail is touched once or never.
func zipfStream(seed uint64, n, length int, s float64) []int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	r := newRNG(seed)
	out := make([]int, length)
	for i := range out {
		u := r.float() * sum
		out[i] = min(sort.SearchFloat64s(cdf, u), n-1)
	}
	return out
}
