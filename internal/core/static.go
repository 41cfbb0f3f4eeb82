package core

import (
	"fmt"
	"io"
	"math"

	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/stats"
)

// StaticOptions tunes the pointer-chase measurement harness.
type StaticOptions struct {
	// Accesses is the number of timed dependent loads per point.
	Accesses int
	// Base is the ring base address.
	Base uint64
	// Stride separates ring elements for the cache-level probes; it
	// should be at least a cache line to defeat spatial reuse.
	Stride uint32
	// DRAMStride is used for the DRAM-level probe; it should span a
	// good fraction of a DRAM row so the measurement reflects row
	// activation rather than open-row streaming.
	DRAMStride uint32
}

// DefaultStaticOptions returns the harness defaults (256 accesses,
// 128-byte cache stride, 512-byte DRAM stride).
func DefaultStaticOptions() StaticOptions {
	return StaticOptions{Accesses: 256, Base: 0x10000, Stride: 128, DRAMStride: 512}
}

// StaticResult is one architecture's Table I row.
type StaticResult struct {
	Arch string
	// L1, L2, DRAM are mean unloaded per-access latencies in cycles;
	// NaN when the level does not exist on the architecture.
	L1   float64
	L2   float64
	DRAM float64
	// L1IsLocalOnly marks Kepler-style L1s measured via local accesses.
	L1IsLocalOnly bool
}

// HasL1 reports whether the architecture exposes an L1 to the chase.
func (r StaticResult) HasL1() bool { return !math.IsNaN(r.L1) }

// HasL2 reports whether the architecture has an L2.
func (r StaticResult) HasL2() bool { return !math.IsNaN(r.L2) }

// chase runs one (stride, footprint) pointer-chase measurement on a
// fresh GPU built from cfg and returns the mean per-access latency.
// When warm is true, a full untimed lap populates the caches first; it
// writes the whole ring, which holds the timed run's part of it.
func chase(cfg gpu.Config, pc kernels.PChaseConfig, warm bool) (float64, error) {
	tr := NewTracker()
	g := gpu.NewWithObservers(cfg, tr, nil)
	wl, err := kernels.PChase(pc)
	if err != nil {
		return 0, err
	}
	if !warm {
		wl.Setup(g.Memory)
	} else {
		wcfg := pc
		wcfg.Accesses = int(pc.FootprintBytes / pc.StrideBytes)
		wwl, err := kernels.PChase(wcfg)
		if err != nil {
			return 0, err
		}
		wwl.Setup(g.Memory)
		if _, err := g.RunKernel(wwl.Kernel); err != nil {
			return 0, err
		}
		tr.Reset()
	}
	if _, err := g.RunKernel(wl.Kernel); err != nil {
		return 0, err
	}
	if err := wl.Verify(g.Memory); err != nil {
		return 0, err
	}
	if tr.Len() == 0 {
		return 0, fmt.Errorf("core: chase produced no tracked loads")
	}
	return tr.MeanLoadLatency(), nil
}

// levelFootprints derives chase footprints from the architecture's cache
// geometry: comfortably inside the L1, between L1 and L2, and far beyond
// the total L2.
func levelFootprints(cfg gpu.Config) (l1FP, l2FP, dramFP uint32) {
	l1Size := uint32(cfg.SM.L1.SizeBytes())
	l2Total := uint32(cfg.Partition.L2.SizeBytes()) * uint32(cfg.NumPartitions)
	if !cfg.Partition.L2Enabled {
		l2Total = 1 << 20
	}
	l1FP = l1Size / 3
	if l1FP < 4096 {
		l1FP = 4096
	}
	// The partition interleave can alias a strided ring onto a subset
	// of each L2 slice's sets, so stay well under nominal capacity.
	l2FP = l1Size * 4
	if cfg.Partition.L2Enabled && l2FP > l2Total/3 {
		l2FP = l2Total / 3
	}
	if l2FP < 16384 {
		l2FP = 16384
	}
	dramFP = l2Total * 16
	return
}

// MeasureStatic reproduces one Table I row for the given architecture:
// it probes each hierarchy level the architecture exposes with the
// pointer-chase microbenchmark.
func MeasureStatic(cfg gpu.Config, opt StaticOptions) (StaticResult, error) {
	res := StaticResult{Arch: cfg.Name, L1: math.NaN(), L2: math.NaN(), DRAM: math.NaN()}
	l1FP, l2FP, dramFP := levelFootprints(cfg)

	mk := func(fp uint32, local bool) kernels.PChaseConfig {
		return kernels.PChaseConfig{
			Base:           opt.Base,
			StrideBytes:    opt.Stride,
			FootprintBytes: fp,
			Accesses:       opt.Accesses,
			Local:          local,
		}
	}

	switch {
	case cfg.SM.L1Enabled:
		v, err := chase(cfg, mk(l1FP, false), true)
		if err != nil {
			return res, fmt.Errorf("L1 chase: %w", err)
		}
		res.L1 = v
	case cfg.SM.L1LocalEnabled:
		// Kepler: the L1 is reachable only through local memory.
		v, err := chase(cfg, mk(l1FP, true), true)
		if err != nil {
			return res, fmt.Errorf("L1 local chase: %w", err)
		}
		res.L1 = v
		res.L1IsLocalOnly = true
	}

	if cfg.Partition.L2Enabled {
		v, err := chase(cfg, mk(l2FP, false), true)
		if err != nil {
			return res, fmt.Errorf("L2 chase: %w", err)
		}
		res.L2 = v
	}

	dpc := mk(dramFP, false)
	if opt.DRAMStride > opt.Stride {
		dpc.StrideBytes = opt.DRAMStride
	}
	v, err := chase(cfg, dpc, false)
	if err != nil {
		return res, fmt.Errorf("DRAM chase: %w", err)
	}
	res.DRAM = v
	return res, nil
}

// SweepPoint is one cell of the full stride×footprint latency surface.
type SweepPoint struct {
	Stride    uint32
	Footprint uint32
	MeanLat   float64
}

// Sweep measures the full P-chase surface (the paper's methodology:
// "varying both the stride as well as footprint of the data being
// touched"). Footprints smaller than one stride are skipped.
func Sweep(cfg gpu.Config, strides, footprints []uint32, opt StaticOptions) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, st := range strides {
		for _, fp := range footprints {
			if fp < st {
				continue
			}
			pc := kernels.PChaseConfig{
				Base: opt.Base, StrideBytes: st, FootprintBytes: fp,
				Accesses: opt.Accesses,
			}
			warm := fp <= 1<<20
			v, err := chase(cfg, pc, warm)
			if err != nil {
				return nil, fmt.Errorf("sweep stride=%d footprint=%d: %w", st, fp, err)
			}
			out = append(out, SweepPoint{Stride: st, Footprint: fp, MeanLat: v})
		}
	}
	return out, nil
}

// TableI renders Table I rows for a set of architecture results.
func TableI(w io.Writer, results []StaticResult) {
	tb := stats.NewTable(append([]string{"Unit"}, rowNames(results)...)...)
	rowVal := func(get func(StaticResult) float64) []any {
		row := make([]any, 0, len(results))
		for _, r := range results {
			v := get(r)
			if math.IsNaN(v) {
				row = append(row, "x")
			} else {
				row = append(row, fmt.Sprintf("%.0f", v))
			}
		}
		return row
	}
	tb.AddRow(append([]any{"L1 D$"}, rowVal(func(r StaticResult) float64 { return r.L1 })...)...)
	tb.AddRow(append([]any{"L2 D$"}, rowVal(func(r StaticResult) float64 { return r.L2 })...)...)
	tb.AddRow(append([]any{"DRAM"}, rowVal(func(r StaticResult) float64 { return r.DRAM })...)...)
	tb.Render(w)
	for _, r := range results {
		if r.L1IsLocalOnly {
			fmt.Fprintf(w, "note: %s L1 measured via local-memory accesses (global bypasses L1)\n", r.Arch)
		}
	}
}

func rowNames(results []StaticResult) []string {
	names := make([]string, len(results))
	for i, r := range results {
		names[i] = r.Arch
	}
	return names
}
