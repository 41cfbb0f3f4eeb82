// Engine internals is a walkthrough of the simulation kernel itself
// rather than of the paper's results: it runs the same workload (vecadd
// at experiment scale) under the cycle-driven reference loop and under
// the subscriber-calendar event loop, shows that the two agree
// cycle-for-cycle, and then opens the hood on where the event engine
// spent its time — which cycles it stepped, which it skipped, and which
// components' wake-ups forced the stepping.
//
// The contract on display (specified in internal/sim/doc.go): every
// component reports a horizon, NextEvent(now) — the earliest cycle at
// which it can act — and the event engine keeps one wake registration
// per component on a scheduler, ticks only the components due in the
// current cycle, re-arms the ones that changed, and jumps the clock to
// the next registered wake. Skipped spans are replayed into the idle
// counters (SkipIdle/SkipStalled), so results AND statistics are
// byte-identical to the reference loop, not merely close.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/sim"
)

func run(engine sim.Engine) (*gpu.GPU, sim.Cycle, time.Duration) {
	cfg, ok := config.ByName("GF100")
	if !ok {
		log.Fatal("unknown preset GF100")
	}
	cfg.Engine = engine
	g := gpu.New(cfg)
	wl, err := kernels.NewByName("vecadd", kernels.ScaleExperiment, 42)
	if err != nil {
		log.Fatal(err)
	}
	begin := time.Now()
	cycles, err := kernels.Run(g, wl)
	if err != nil {
		log.Fatal(err)
	}
	return g, cycles, time.Since(begin)
}

func main() {
	fmt.Fprintln(os.Stderr, "running vecadd on GF100 under both engines...")

	gt, ct, wallTick := run(sim.EngineTick)
	ge, ce, wallEvent := run(sim.EngineEvent)

	// 1. Identity: same simulated machine, same answer.
	if ct != ce {
		log.Fatalf("engines diverged: tick %d cycles, event %d cycles", ct, ce)
	}
	st, se := gt.Stats(), ge.Stats()
	fmt.Printf("identical result:   %d device cycles from both engines\n", ct)
	fmt.Printf("  tick engine:      stepped all %d cycles            (%v)\n",
		st.Cycles, wallTick.Round(time.Millisecond))
	fmt.Printf("  event engine:     stepped %d, skipped %d (%.1f%%)  (%v)\n",
		se.Cycles-se.SkippedCycles, se.SkippedCycles,
		100*float64(se.SkippedCycles)/float64(se.Cycles),
		wallEvent.Round(time.Millisecond))

	// 2. A cycle is stepped when ANY component's wake is due; it is
	// skipped only when every registration lies in the future. The
	// per-component counters show who kept the clock stepping: Arms is
	// how many registrations the scheduler accepted, Fired how many due
	// wake-ups led to a tick of that component.
	ws := ge.WakeStats()
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].Fired > ws[j].Fired })
	fmt.Printf("\nper-component wake-ups (event engine, by fired count):\n")
	fmt.Printf("  %-10s %10s %10s\n", "component", "arms", "fired")
	var fired uint64
	for _, w := range ws {
		fired += w.Fired
		if w.Fired > 0 {
			fmt.Printf("  %-10s %10d %10d\n", w.Name, w.Arms, w.Fired)
		}
	}
	steppedCells := (se.Cycles - se.SkippedCycles) * uint64(len(ws))
	fmt.Printf("  total component ticks: %d — the tick engine would have run %d\n",
		fired, se.Cycles*uint64(len(ws)))
	fmt.Printf("  (%.1f%% of the component ticks even the stepped cycles could have held)\n",
		100*float64(fired)/float64(steppedCells))

	// 3. Why vecadd skips little and pointer chases skip almost
	// everything: a bandwidth-bound kernel keeps some partition, network
	// port, or core busy nearly every cycle, so the union of due wakes
	// covers most of the timeline and the engine's win comes from NOT
	// ticking the other ~20 components during those cycles. A dependent-
	// load chain leaves the whole machine waiting on one DRAM access at
	// a time — thousands-cycle gaps with no registration due — and the
	// clock jumps them outright (the bench/ ledger's sim_sparse workload
	// is that case, sim_dense this one).
	fmt.Printf("\nwhy so few skips here: vecadd keeps the memory system busy;\n")
	fmt.Printf("the engine's win on this workload is ticking %d component-cycles\n", fired)
	fmt.Printf("instead of %d, not jumping the clock.\n", se.Cycles*uint64(len(ws)))

	// 4. The stepped/skipped split and the wake counters are exact, so
	// `gpulat simrun -trace-sim -` prints them for any kernel, identical
	// across machines and days. Wall-clock speed is the repository
	// benchmark's job: `bash bench/run.sh --workload sim_sparse --trace 1`
	// (or sim_dense) reports cycles per second under both engines.
	fmt.Printf("\nnext: `gpulat simrun -trace-sim -` for the exact counters of any kernel,\n")
	fmt.Printf("`bash bench/run.sh --workload sim_sparse --trace 1` for timed engine speeds.\n")
}
