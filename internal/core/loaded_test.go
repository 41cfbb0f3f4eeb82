package core

import (
	"runtime"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

func TestMemSubsystemSingleRequestIdleLatency(t *testing.T) {
	cfg := config.GF100()
	// The request is the testbench's only during the callback: keep a
	// copy of its log.
	var got *mem.StageLog
	bench := gpu.NewMemSubsystem(cfg, func(c sim.Cycle, r *mem.Request) { lg := *r.Log; got = &lg })
	bench.Inject(0, 0x100000, 128)
	for i := 0; i < 5000 && got == nil; i++ {
		bench.Step()
	}
	if got == nil {
		t.Fatal("request never returned")
	}
	total, _ := got.Total()
	// Idle DRAM trip without the SM front/back ends: the Table I DRAM
	// value (685) minus the SM issue pipe and writeback (~40 cycles).
	if total < 550 || total > 700 {
		t.Fatalf("idle testbench latency = %d", total)
	}
	if !got.Monotonic() {
		t.Fatalf("log: %v", got)
	}
	if !bench.Drained() {
		t.Fatal("bench not drained after completion")
	}
}

func TestMemSubsystemManyRequestsDrain(t *testing.T) {
	cfg := config.GF100()
	n := 0
	bench := gpu.NewMemSubsystem(cfg, func(sim.Cycle, *mem.Request) { n++ })
	rng := sim.NewRNG(3)
	const injected = 500
	for i := 0; i < injected; i++ {
		bench.Inject(i%cfg.NumSMs, uint64(rng.Intn(1<<24))&^127, 128)
	}
	for i := 0; i < 500000 && !bench.Drained(); i++ {
		bench.Step()
	}
	if n != injected {
		t.Fatalf("completed %d of %d", n, injected)
	}
	if bench.Stats().Injected != injected || bench.Stats().Completed != injected {
		t.Fatalf("stats: %+v", bench.Stats())
	}
	if reqs, logs := bench.RequestPool().Outstanding(); reqs != 0 || logs != 0 {
		t.Fatalf("drained testbench holds %d requests and %d logs from its pool", reqs, logs)
	}
}

// TestMemSubsystemWaitingInjectionsStaySmall drives a GF100 testbench
// past saturation (offered 0.4, where most injections are still waiting
// at the end) and bounds the heap it retains per waiting injection: a
// waiting load must cost its queue entry, not a Request and a StageLog.
func TestMemSubsystemWaitingInjectionsStaySmall(t *testing.T) {
	const perWaiting = 48
	cfg := config.GF100()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bench := gpu.NewMemSubsystem(cfg, nil)
	rng, load := sim.NewRNG(1), 0.4
	threshold := uint64(load * (1 << 53))
	for range 20000 {
		for port := range cfg.NumSMs {
			if rng.Uint64()>>11 < threshold {
				bench.Inject(port, (rng.Uint64()%(64<<20))&^127, 128)
			}
		}
		bench.Step()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	inFlight, _ := bench.RequestPool().Outstanding()
	st := bench.Stats()
	waiting := st.Injected - st.Completed - uint64(inFlight)
	if waiting < st.Injected/2 {
		t.Fatalf("only %d of %d injections waiting: the point is not saturated", waiting, st.Injected)
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got := retained / int64(waiting); got > perWaiting {
		t.Fatalf("testbench retains %d B (%d B per waiting injection, budget %d) with %d of %d injections waiting",
			retained, got, perWaiting, waiting, st.Injected)
	} else {
		t.Logf("testbench retains %d B, %d B per waiting injection (%d of %d)", retained, got, waiting, st.Injected)
	}
	runtime.KeepAlive(bench)
}

func TestMemSubsystemBadPortPanics(t *testing.T) {
	bench := gpu.NewMemSubsystem(config.GF100(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bench.Inject(99, 0, 128)
}

func TestLoadedLatencyCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loaded sweep is slow")
	}
	cfg := config.GF100()
	points, err := LoadedLatency(cfg, []float64{0.005, 0.3}, LoadedOptions{Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	low, high := points[0], points[1]
	// Low load: latency near idle. High load: saturated, latency must
	// blow up and achieved load must fall short of offered.
	if low.MeanLatency > 900 {
		t.Errorf("low-load latency %v should be near idle (~690)", low.MeanLatency)
	}
	if high.MeanLatency < 3*low.MeanLatency {
		t.Errorf("saturated latency %v did not blow up vs %v", high.MeanLatency, low.MeanLatency)
	}
	if high.AchievedLoad > 0.9*high.OfferedLoad {
		t.Errorf("system sustained %v of offered %v — should saturate", high.AchievedLoad, high.OfferedLoad)
	}
	var sb strings.Builder
	RenderLoadedCurve(&sb, cfg.Name, points)
	if !strings.Contains(sb.String(), "offered/port") {
		t.Fatal("render missing header")
	}
}

func TestLoadedLatencyValidatesLoad(t *testing.T) {
	if _, err := LoadedLatency(config.GF100(), []float64{0}, LoadedOptions{Cycles: 10}); err == nil {
		t.Fatal("zero load accepted")
	}
	if _, err := LoadedLatency(config.GF100(), []float64{1.5}, LoadedOptions{Cycles: 10}); err == nil {
		t.Fatal("overload accepted")
	}
}
