package core

import (
	"math"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
)

// TestBFSDynamicExperiment reproduces the paper's Section III experiments
// (Figures 1 and 2) on a reduced BFS input and asserts the qualitative
// findings:
//
//  1. the lowest-latency loads are pure SM-base time (L1 hits);
//  2. queueing (L1toICNT) and DRAM arbitration (QtoSch) are among the
//     top dynamic latency contributors;
//  3. a majority of load latency is exposed, and most loads are more
//     than 50% exposed.
func TestBFSDynamicExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic experiment is slow")
	}
	graph := kernels.GenScaleFree(1<<14, 4, 42)
	mk, err := kernels.BFS(kernels.BFSConfig{Graph: graph, Source: 0, BlockDim: 128})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDynamicMulti(config.GF100(), mk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracker.BadLogs() != 0 {
		t.Fatalf("%d corrupt stage logs", res.Tracker.BadLogs())
	}
	if res.Tracker.Len() < 1000 {
		t.Fatalf("only %d loads tracked", res.Tracker.Len())
	}

	// --- Figure 1 shape ---
	rep := res.Tracker.Breakdown(res.Workload, res.Arch, 48)

	// With the paper's ~38-cycle buckets, the lowest bucket contains
	// only L1 hits and must be pure SM-base time.
	fine := res.Tracker.BreakdownWidth(res.Workload, res.Arch, 38)
	var first *BreakdownBucket
	for i := range fine.Buckets {
		if fine.Buckets[i].Count > 0 {
			first = &fine.Buckets[i]
			break
		}
	}
	if first == nil {
		t.Fatal("no buckets")
	}
	if first.Pct(StageSMBase) < 90 {
		t.Errorf("lowest bucket SMBase%% = %.1f, want >= 90 (L1 hits)", first.Pct(StageSMBase))
	}

	// The paper's two key contributors, checked the way the figure
	// shows them: the L1 miss queue (dark blue) dominates the long-
	// latency buckets, and DRAM access scheduling (orange) grows with
	// latency, peaking in the right-most buckets.
	var nonEmpty []*BreakdownBucket
	for i := range rep.Buckets {
		if rep.Buckets[i].Count > 0 {
			nonEmpty = append(nonEmpty, &rep.Buckets[i])
		}
	}
	upper := nonEmpty[len(nonEmpty)/2:]
	var l1icntAvg, dramQMax float64
	for _, b := range upper {
		l1icntAvg += b.Pct(StageL1ToICNT)
	}
	l1icntAvg /= float64(len(upper))
	for _, b := range nonEmpty {
		if v := b.Pct(StageDRAMQueue); v > dramQMax {
			dramQMax = v
		}
	}
	if l1icntAvg < 15 {
		t.Errorf("L1toICNT averages %.1f%% in long-latency buckets, want the paper's dominant queueing contributor", l1icntAvg)
	}
	if dramQMax < 10 {
		t.Errorf("DRAM(QtoSch) peaks at %.1f%%, want a significant arbitration contributor", dramQMax)
	}

	// Long-latency buckets must involve the DRAM stages (requests that
	// went all the way down).
	last := nonEmpty[len(nonEmpty)-1]
	dramShare := last.Pct(StageDRAMQueue) + last.Pct(StageDRAMAccess)
	if dramShare <= 0 {
		t.Error("longest-latency bucket has no DRAM time")
	}

	// --- Figure 2 shape ---
	er := res.Tracker.Exposure(res.Workload, res.Arch, 24)
	if er.OverallExposedPct() < 50 {
		t.Errorf("overall exposed = %.1f%%, paper finds latency mostly exposed", er.OverallExposedPct())
	}
	if er.MostlyExposedPct() < 50 {
		t.Errorf("loads >50%% exposed = %.1f%%, want majority", er.MostlyExposedPct())
	}
}

// TestStaticMatchesTableI runs the full Table I reproduction through the
// public static-analysis API (the same path the CLI uses).
func TestStaticMatchesTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("static sweep is slow")
	}
	opt := DefaultStaticOptions()
	opt.Accesses = 128

	check := func(got float64, want, tol float64, what string) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %.1f, want %.0f±%.0f", what, got, want, tol)
		}
	}

	fermi, err := MeasureStatic(config.GF106(), opt)
	if err != nil {
		t.Fatal(err)
	}
	check(fermi.L1, 45, 3, "Fermi L1")
	check(fermi.L2, 310, 10, "Fermi L2")
	check(fermi.DRAM, 685, 20, "Fermi DRAM")

	kepler, err := MeasureStatic(config.GK104(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !kepler.L1IsLocalOnly {
		t.Error("Kepler L1 must be measured via local accesses")
	}
	check(kepler.L1, 30, 3, "Kepler L1")
	check(kepler.L2, 175, 8, "Kepler L2")
	check(kepler.DRAM, 300, 12, "Kepler DRAM")

	tesla, err := MeasureStatic(config.GT200(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if tesla.HasL1() || tesla.HasL2() {
		t.Error("Tesla must report no cache levels")
	}
	check(tesla.DRAM, 440, 15, "Tesla DRAM")

	maxwell, err := MeasureStatic(config.GM107(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if maxwell.HasL1() {
		t.Error("Maxwell must report no L1")
	}
	check(maxwell.L2, 194, 8, "Maxwell L2")
	check(maxwell.DRAM, 350, 12, "Maxwell DRAM")

	// The paper's headline: the global pipeline got *slower* on newer
	// generations at the L2 and DRAM levels from Kepler to Maxwell, and
	// Fermi's DRAM latency is the largest of all.
	if !(maxwell.L2 > kepler.L2 && maxwell.DRAM > kepler.DRAM) {
		t.Error("Maxwell must be slower than Kepler at L2 and DRAM")
	}
	if !(fermi.DRAM > tesla.DRAM && fermi.DRAM > kepler.DRAM && fermi.DRAM > maxwell.DRAM) {
		t.Error("Fermi DRAM must be the slowest")
	}
}

// fullRingChase is chase as it was before the ring was cut to what the
// chase reads: the whole ring is written before either lap.
func fullRingChase(t *testing.T, cfg gpu.Config, pc kernels.PChaseConfig, warm bool) float64 {
	t.Helper()
	tr := NewTracker()
	g := gpu.NewWithObservers(cfg, tr, nil)
	ring := pc
	ring.Accesses = int(pc.FootprintBytes / pc.StrideBytes)
	full, err := kernels.PChase(ring)
	if err != nil {
		t.Fatal(err)
	}
	full.Setup(g.Memory)
	wl, err := kernels.PChase(pc)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		if _, err := g.RunKernel(full.Kernel); err != nil {
			t.Fatal(err)
		}
		tr.Reset()
	}
	if _, err := g.RunKernel(wl.Kernel); err != nil {
		t.Fatal(err)
	}
	if err := wl.Verify(g.Memory); err != nil {
		t.Fatal(err)
	}
	return tr.MeanLoadLatency()
}

// TestStaticChaseMatchesFullRing: Table I on four architectures, and a
// sweep point too large for a warm lap, read bit for bit what they read
// when the whole ring is written, though the chase writes only the part
// its timed loads read.
func TestStaticChaseMatchesFullRing(t *testing.T) {
	opt := DefaultStaticOptions()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v, with the whole ring written %v", what, got, want)
		}
	}
	for _, cfg := range []gpu.Config{config.GT200(), config.GF106(), config.GK104(), config.GM107()} {
		got, err := MeasureStatic(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		l1FP, l2FP, dramFP := levelFootprints(cfg)
		pc := func(fp, stride uint32, local bool) kernels.PChaseConfig {
			return kernels.PChaseConfig{Base: opt.Base, StrideBytes: stride, FootprintBytes: fp, Accesses: opt.Accesses, Local: local}
		}
		want := math.NaN()
		if cfg.SM.L1Enabled || cfg.SM.L1LocalEnabled {
			want = fullRingChase(t, cfg, pc(l1FP, opt.Stride, !cfg.SM.L1Enabled), true)
		}
		same(cfg.Name+" L1", got.L1, want)
		want = math.NaN()
		if cfg.Partition.L2Enabled {
			want = fullRingChase(t, cfg, pc(l2FP, opt.Stride, false), true)
		}
		same(cfg.Name+" L2", got.L2, want)
		same(cfg.Name+" DRAM", got.DRAM, fullRingChase(t, cfg, pc(dramFP, opt.DRAMStride, false), false))
	}
	cfg := config.GF106()
	pts, err := Sweep(cfg, []uint32{512}, []uint32{2 << 20}, opt)
	if err != nil {
		t.Fatal(err)
	}
	pc := kernels.PChaseConfig{Base: opt.Base, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: opt.Accesses}
	same("GF106 sweep stride 512 footprint 2 MiB", pts[0].MeanLat, fullRingChase(t, cfg, pc, false))
}
