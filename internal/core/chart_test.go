package core

import (
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

func TestBreakdownRenderChart(t *testing.T) {
	tr := NewTracker()
	var hit [NumStages]sim.Cycle
	var miss [NumStages]sim.Cycle
	miss[StageSMBase] = 100
	miss[StageDRAMQueue] = 900
	feed(tr, 0, 0, 50, hit)
	feed(tr, 0, 0, 1000, miss)
	rep := tr.Breakdown("t", "tiny", 8)
	var sb strings.Builder
	rep.RenderChart(&sb, 10)
	out := sb.String()
	if !strings.Contains(out, "legend:") {
		t.Fatal("chart missing legend")
	}
	lines := strings.Split(out, "\n")
	// Two non-empty buckets → two columns after the "|".
	var colLine string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			colLine = l
			break
		}
	}
	if len(strings.SplitN(colLine, "|", 2)[1]) != 2 {
		t.Fatalf("column count wrong: %q", colLine)
	}
	// The hit column must be 'S' top to bottom; the miss column must
	// show 'D' somewhere.
	if !strings.Contains(out, "S") || !strings.Contains(out, "D") {
		t.Fatalf("chart content: %s", out)
	}
}

func TestExposureRenderChart(t *testing.T) {
	tr := NewTracker()
	feed(tr, 0, 100, 500, [NumStages]sim.Cycle{}) // fully exposed
	rep := tr.Exposure("t", "tiny", 4)
	var sb strings.Builder
	rep.RenderChart(&sb, 10)
	out := sb.String()
	// Count X cells in the bar rows only (the header also contains an
	// explanatory "X").
	bars := out[strings.Index(out, "\n")+1:]
	if strings.Count(bars, "X") != 10 {
		t.Fatalf("expected full X column, got %d in:\n%s", strings.Count(bars, "X"), out)
	}
}

func TestRenderChartEmpty(t *testing.T) {
	tr := NewTracker()
	var sb strings.Builder
	tr.Breakdown("e", "none", 4).RenderChart(&sb, 5)
	if !strings.Contains(sb.String(), "no data") {
		t.Fatalf("empty chart: %q", sb.String())
	}
	sb.Reset()
	tr.Exposure("e", "none", 4).RenderChart(&sb, 5)
	if !strings.Contains(sb.String(), "no data") {
		t.Fatalf("empty exposure chart: %q", sb.String())
	}
}

func TestOccupancySweepMonotoneSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("occupancy sweep is slow")
	}
	cfg := config.GF100()
	build := func() (*kernels.MultiKernel, error) {
		g := kernels.GenUniformRandom(2048, 4, 5)
		return kernels.BFS(kernels.BFSConfig{Graph: g, Source: 0, BlockDim: 64})
	}
	points, err := OccupancySweep(cfg, []int{2, 8, 32}, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	for _, p := range points {
		if p.Cycles == 0 || p.ExposedPct <= 0 || p.ExposedPct > 100 {
			t.Fatalf("bad point: %+v", p)
		}
	}
	// The paper's latency-hiding saturation: for memory-bound BFS, going
	// from 8 to 32 warps must not improve runtime by more than ~25%.
	if float64(points[2].Cycles) < 0.75*float64(points[1].Cycles) {
		t.Errorf("BFS runtime kept scaling with occupancy: %+v", points)
	}
	var sb strings.Builder
	RenderOccupancy(&sb, "bfs", cfg.Name, points)
	if !strings.Contains(sb.String(), "warps/SM") {
		t.Fatal("render missing header")
	}
}

func TestOccupancySweepValidatesLimits(t *testing.T) {
	cfg := config.GF100()
	_, err := OccupancySweep(cfg, []int{0}, nil)
	if err == nil {
		t.Fatal("warp limit 0 accepted")
	}
	_, err = OccupancySweep(cfg, []int{cfg.SM.MaxWarps + 1}, nil)
	if err == nil {
		t.Fatal("oversized warp limit accepted")
	}
}
