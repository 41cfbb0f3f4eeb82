package config

import (
	"testing"

	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// latencyCollector records completed tracked loads.
type latencyCollector struct {
	total []sim.Cycle
}

func (lc *latencyCollector) RequestDone(c sim.Cycle, r *mem.Request) {
	if t, ok := r.Log.Total(); ok {
		lc.total = append(lc.total, t)
	}
}

// measureChase runs a warmup lap (when warming helps: the footprint fits
// a cache) plus a timed run and returns the mean per-access latency of
// the timed loads.
func measureChase(t *testing.T, cfg gpu.Config, pc kernels.PChaseConfig) float64 {
	t.Helper()
	lc := &latencyCollector{}
	g := gpu.NewWithObservers(cfg, lc, nil)
	wl, err := kernels.PChase(pc)
	if err != nil {
		t.Fatal(err)
	}

	// Warmup lap: covers the ring once so caches are populated; it
	// writes the whole ring, which holds the timed run's part of it. A
	// ring bigger than the L2 thrashes regardless (sequential chase +
	// LRU), so skip the lap for the DRAM-level measurement.
	if pc.FootprintBytes > 1<<20 {
		wl.Setup(g.Memory)
	} else {
		warm := pc
		warm.Accesses = int(pc.FootprintBytes / pc.StrideBytes)
		wwl, err := kernels.PChase(warm)
		if err != nil {
			t.Fatal(err)
		}
		wwl.Setup(g.Memory)
		if _, err := g.RunKernel(wwl.Kernel); err != nil {
			t.Fatal(err)
		}
		lc.total = nil // discard warmup measurements
	}

	if _, err := g.RunKernel(wl.Kernel); err != nil {
		t.Fatal(err)
	}
	if err := wl.Verify(g.Memory); err != nil {
		t.Fatal(err)
	}
	if len(lc.total) == 0 {
		t.Fatal("no tracked loads completed")
	}
	sum := 0.0
	for _, v := range lc.total {
		sum += float64(v)
	}
	return sum / float64(len(lc.total))
}

// Chase parameter sets per level: footprints chosen against the preset
// cache sizes (L1 48KiB, L2 256KiB+ per partition).
func l1Chase() kernels.PChaseConfig {
	return kernels.PChaseConfig{Base: 0x10000, StrideBytes: 128, FootprintBytes: 16 << 10, Accesses: 256}
}
func l1LocalChase() kernels.PChaseConfig {
	c := l1Chase()
	c.Local = true
	return c
}
func l2Chase() kernels.PChaseConfig {
	// Note the footprint must leave margin below total L2 capacity:
	// the 256B partition interleave makes a 128B-stride ring touch only
	// half of each slice's sets, so the usable capacity is half the
	// nominal one.
	return kernels.PChaseConfig{Base: 0x10000, StrideBytes: 128, FootprintBytes: 96 << 10, Accesses: 256}
}
func dramChase() kernels.PChaseConfig {
	return kernels.PChaseConfig{Base: 0x10000, StrideBytes: 512, FootprintBytes: 16 << 20, Accesses: 192}
}

func check(t *testing.T, name string, got float64, want float64, tol float64) {
	t.Helper()
	if got < want-tol || got > want+tol {
		t.Errorf("%s: measured %.1f cycles, want %.0f±%.0f", name, got, want, tol)
	} else {
		t.Logf("%s: measured %.1f cycles (paper: %.0f)", name, got, want)
	}
}

// TestTableICalibration verifies that the presets reproduce the paper's
// Table I within tolerance. This is experiment E1's foundation.
func TestTableICalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	t.Run("GF106/L1", func(t *testing.T) { check(t, "Fermi L1", measureChase(t, GF106(), l1Chase()), 45, 3) })
	t.Run("GF106/L2", func(t *testing.T) { check(t, "Fermi L2", measureChase(t, GF106(), l2Chase()), 310, 8) })
	t.Run("GF106/DRAM", func(t *testing.T) { check(t, "Fermi DRAM", measureChase(t, GF106(), dramChase()), 685, 15) })
	t.Run("GT200/DRAM", func(t *testing.T) { check(t, "Tesla DRAM", measureChase(t, GT200(), dramChase()), 440, 10) })
	t.Run("GK104/L1local", func(t *testing.T) {
		check(t, "Kepler L1 (local)", measureChase(t, GK104(), l1LocalChase()), 30, 3)
	})
	t.Run("GK104/L2", func(t *testing.T) { check(t, "Kepler L2", measureChase(t, GK104(), l2Chase()), 175, 6) })
	t.Run("GK104/DRAM", func(t *testing.T) { check(t, "Kepler DRAM", measureChase(t, GK104(), dramChase()), 300, 8) })
	t.Run("GM107/L2", func(t *testing.T) { check(t, "Maxwell L2", measureChase(t, GM107(), l2Chase()), 194, 6) })
	t.Run("GM107/DRAM", func(t *testing.T) { check(t, "Maxwell DRAM", measureChase(t, GM107(), dramChase()), 350, 8) })
}

// TestStructuralProperties checks the qualitative Table I structure the
// paper highlights: which levels exist per generation.
func TestStructuralProperties(t *testing.T) {
	if GT200().SM.L1Enabled || GT200().Partition.L2Enabled {
		t.Error("Tesla must have no caches in the global pipeline")
	}
	if !GF106().SM.L1Enabled || !GF106().Partition.L2Enabled {
		t.Error("Fermi must have L1 and L2")
	}
	k := GK104()
	if k.SM.L1Enabled || !k.SM.L1LocalEnabled {
		t.Error("Kepler L1 must serve local accesses only")
	}
	m := GM107()
	if m.SM.L1Enabled || m.SM.L1LocalEnabled {
		t.Error("Maxwell must have no L1 in the load path")
	}
	if !m.Partition.L2Enabled {
		t.Error("Maxwell must retain the L2")
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		if _, ok := ByName(n); !ok {
			t.Errorf("preset %s not resolvable", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name resolved")
	}
}
