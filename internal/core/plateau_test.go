package core

import (
	"strings"
	"testing"
	"testing/quick"

	"gpulat/internal/mem"
)

func sweepOf(stride uint32, latencies map[uint32]float64) []SweepPoint {
	var out []SweepPoint
	for fp, lat := range latencies {
		out = append(out, SweepPoint{Stride: stride, Footprint: fp, MeanLat: lat})
	}
	return out
}

func TestDetectLevelsThreePlateaus(t *testing.T) {
	pts := sweepOf(128, map[uint32]float64{
		8 << 10:   45,
		16 << 10:  45,
		32 << 10:  45.5,
		64 << 10:  310,
		128 << 10: 309,
		256 << 10: 311,
		512 << 10: 684,
		1 << 20:   685,
		4 << 20:   686,
	})
	levels := DetectLevels(pts, 128, 0.08)
	if len(levels) != 3 {
		t.Fatalf("levels = %+v", levels)
	}
	approx := func(got, want float64) bool { return got > want-5 && got < want+5 }
	if !approx(levels[0].Latency, 45) || !approx(levels[1].Latency, 310) || !approx(levels[2].Latency, 685) {
		t.Fatalf("plateau latencies: %+v", levels)
	}
	if levels[0].HiFootprint != 32<<10 {
		t.Fatalf("L1 plateau extends to %d", levels[0].HiFootprint)
	}
}

func TestDetectLevelsAbsorbsTransitionPoint(t *testing.T) {
	pts := sweepOf(128, map[uint32]float64{
		8 << 10:   45,
		16 << 10:  45,
		32 << 10:  45,
		48 << 10:  180, // straddles the L1 capacity: hit/miss mix
		64 << 10:  310,
		128 << 10: 310,
		256 << 10: 310,
	})
	levels := DetectLevels(pts, 128, 0.08)
	if len(levels) != 2 {
		t.Fatalf("transitional point not absorbed: %+v", levels)
	}
}

func TestDetectLevelsSinglePlateau(t *testing.T) {
	pts := sweepOf(512, map[uint32]float64{
		1 << 20: 440, 4 << 20: 441, 16 << 20: 439,
	})
	levels := DetectLevels(pts, 512, 0.08)
	if len(levels) != 1 {
		t.Fatalf("levels = %+v", levels)
	}
}

func TestDetectLevelsFiltersStride(t *testing.T) {
	pts := append(
		sweepOf(128, map[uint32]float64{8 << 10: 45}),
		sweepOf(256, map[uint32]float64{8 << 10: 45, 64 << 10: 310})...,
	)
	if got := DetectLevels(pts, 999, 0.08); got != nil {
		t.Fatal("unknown stride produced levels")
	}
	if got := DetectLevels(pts, 256, 0.08); len(got) != 2 {
		t.Fatalf("stride filter wrong: %+v", got)
	}
}

// Property: levels are ordered, non-overlapping, and cover every sweep
// point except absorbed transitions.
func TestDetectLevelsInvariantProperty(t *testing.T) {
	f := func(lats []uint16) bool {
		if len(lats) == 0 {
			return true
		}
		if len(lats) > 24 {
			lats = lats[:24]
		}
		var pts []SweepPoint
		for i, l := range lats {
			pts = append(pts, SweepPoint{
				Stride: 128, Footprint: uint32(i+1) * 4096,
				MeanLat: float64(l%2000) + 20,
			})
		}
		levels := DetectLevels(pts, 128, 0.08)
		if len(levels) == 0 {
			return false
		}
		for i := 1; i < len(levels); i++ {
			if levels[i].LoFootprint <= levels[i-1].HiFootprint {
				return false
			}
		}
		total := 0
		for _, lv := range levels {
			if lv.Points <= 0 || lv.Latency <= 0 {
				return false
			}
			total += lv.Points
		}
		return total <= len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderLevels(t *testing.T) {
	var sb strings.Builder
	RenderLevels(&sb, "GF106", 128, []Level{
		{LoFootprint: 8 << 10, HiFootprint: 32 << 10, Latency: 45, Points: 3},
	})
	if !strings.Contains(sb.String(), "45.0") || !strings.Contains(sb.String(), "32KiB") {
		t.Fatalf("render: %q", sb.String())
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	l := &mem.StageLog{MergedAtL1: true}
	l.Mark(mem.PtIssue, 10)
	l.Mark(mem.PtCreated, 12)
	l.Mark(mem.PtReturnSM, 57)
	tr := NewTracker(KeepRecords)
	tr.RequestDone(57, &mem.Request{SM: 1, Warp: 2, Log: l})
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1,2,global,10,12,57,45,47,true,false,45") {
		t.Fatalf("row: %q", lines[1])
	}
	if !strings.Contains(lines[0], "DRAM(QtoSch)") {
		t.Fatalf("header: %q", lines[0])
	}
}
