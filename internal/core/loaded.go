package core

import (
	"fmt"
	"io"

	"gpulat/internal/gpu"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/stats"
)

// LoadedPoint is one step of the loaded-latency experiment: mean and
// tail load latency at a given offered load.
type LoadedPoint struct {
	// OfferedLoad is the injection probability per port per cycle
	// (requests/cycle/SM-port).
	OfferedLoad float64
	// AchievedLoad is the completed-request rate actually sustained.
	AchievedLoad float64
	// MeanLatency and P99Latency are in cycles.
	MeanLatency float64
	P99Latency  float64
	Completed   uint64
}

// LoadedOptions tunes the loaded-latency sweep.
type LoadedOptions struct {
	// Cycles per measurement point (default 50_000).
	Cycles sim.Cycle
	// FootprintBytes spans the random address range (default 64 MiB, far
	// beyond any L2, so the memory system is exercised to DRAM).
	FootprintBytes uint64
	// Seed fixes the address stream.
	Seed uint64
	// RequestBytes is the injected transaction size (default 128).
	RequestBytes uint32
}

func (o *LoadedOptions) fill() {
	if o.Cycles == 0 {
		o.Cycles = 50_000
	}
	if o.FootprintBytes == 0 {
		o.FootprintBytes = 64 << 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RequestBytes == 0 {
		o.RequestBytes = 128
	}
}

// LoadedLatency measures the memory system's latency under synthetic
// random load — the bridge between the paper's idle (static) latency and
// its loaded (dynamic) behavior. For each offered load, uniformly random
// requests are injected at every SM port with the given per-cycle
// probability, and per-request latency is measured from the stage logs.
// The resulting latency-vs-throughput curve shows the classic knee: idle
// latency at low load, queueing blow-up near saturation — queueing and
// arbitration, the paper's two contributors, are exactly what grows.
// Past the knee most injections are still waiting at their ports when a
// point ends; each waits in 32 bytes, so a point's memory follows what
// is in flight, and only the latencies it returns grow with the load.
func LoadedLatency(cfg gpu.Config, offeredLoads []float64, opt LoadedOptions) ([]LoadedPoint, error) {
	opt.fill()
	var out []LoadedPoint
	for _, p := range offeredLoads {
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("core: offered load %v outside (0,1]", p)
		}
		var lats []float64
		bench := gpu.NewMemSubsystem(cfg, func(c sim.Cycle, r *mem.Request) {
			if t, ok := r.Log.Total(); ok {
				lats = append(lats, float64(t))
			}
		})
		rng := sim.NewRNG(opt.Seed)
		threshold := uint64(p * (1 << 53))
		for cyc := sim.Cycle(0); cyc < opt.Cycles; cyc++ {
			for port := 0; port < cfg.NumSMs; port++ {
				if rng.Uint64()>>11 < threshold {
					addr := rng.Uint64() % opt.FootprintBytes
					addr &^= uint64(opt.RequestBytes - 1)
					bench.Inject(port, addr, opt.RequestBytes)
				}
			}
			bench.Step()
		}
		// Achieved throughput is measured over the injection window only;
		// the drain that follows would otherwise inflate it past the
		// service rate. The event engine fast-forwards the drain (the
		// injection window itself cannot skip: requests arrive per
		// cycle); clamping to the cycle bound keeps the completion set
		// identical to the tick engine's.
		completedInWindow := bench.Stats().Completed
		for !bench.Drained() && bench.Cycle() < opt.Cycles*4 {
			bench.Step()
			if cfg.Engine == sim.EngineEvent {
				bench.FastForward(opt.Cycles * 4)
			}
		}
		sum := stats.Summarize(lats)
		out = append(out, LoadedPoint{
			OfferedLoad:  p,
			AchievedLoad: float64(completedInWindow) / float64(opt.Cycles) / float64(cfg.NumSMs),
			MeanLatency:  sum.Mean,
			P99Latency:   sum.P99,
			Completed:    bench.Stats().Completed,
		})
	}
	return out, nil
}

// RenderLoadedCurve writes the latency-vs-load curve as a table.
func RenderLoadedCurve(w io.Writer, arch string, points []LoadedPoint) {
	fmt.Fprintf(w, "Loaded latency curve — %s (random global loads, uniform traffic)\n", arch)
	tb := stats.NewTable("offered/port", "achieved/port", "mean lat", "p99 lat", "completed")
	for _, p := range points {
		tb.AddRow(fmt.Sprintf("%.3f", p.OfferedLoad), fmt.Sprintf("%.3f", p.AchievedLoad),
			p.MeanLatency, p.P99Latency, p.Completed)
	}
	tb.Render(w)
}
