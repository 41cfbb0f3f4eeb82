package gpu_test

import (
	"fmt"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/gpu"
	"gpulat/internal/sim"
)

// TestMemSubsystemFastForwardMatchesStep drains a saturating burst of
// loads on the SM-less testbench twice, once stepped cycle by cycle and
// once fast-forwarded between events, and requires every partition, L2
// and DRAM counter to agree: the skipped cycles must leave the stall
// counts a parked L2 head accrues while it waits, as the stepped ones do.
func TestMemSubsystemFastForwardMatchesStep(t *testing.T) {
	const (
		burst     = 4_000
		footprint = 64 << 20
		lineBytes = 128
	)
	for _, arch := range config.Names() {
		t.Run(arch, func(t *testing.T) {
			drain := func(fastForward bool) (string, sim.Cycle) {
				cfg, _ := config.ByName(arch)
				ms := gpu.NewMemSubsystem(cfg, nil)
				rng := sim.NewRNG(1)
				offered := 0.6 // per port per cycle
				threshold := uint64(offered * (1 << 53))
				for c := 0; c < burst; c++ {
					for port := 0; port < cfg.NumSMs; port++ {
						if rng.Uint64()>>11 < threshold {
							ms.Inject(port, rng.Uint64()%footprint&^(lineBytes-1), lineBytes)
						}
					}
					ms.Step()
				}
				for !ms.Drained() {
					if fastForward {
						ms.FastForward(100 * burst)
					}
					ms.Step()
					if ms.Cycle() > 100*burst {
						t.Fatalf("fast-forward %v: not drained at cycle %d", fastForward, ms.Cycle())
					}
				}
				var sig string
				for i, p := range ms.Partitions() {
					sig += fmt.Sprintf("part%d %+v\n  dram %+v\n", i, p.Stats(), p.DRAM().Stats())
					if l2 := p.L2(); l2 != nil {
						sig += fmt.Sprintf("  l2 %+v\n", l2.Stats())
					}
				}
				return sig, ms.Cycle()
			}
			stepped, cs := drain(false)
			skipped, cf := drain(true)
			if cs != cf {
				t.Fatalf("drained at cycle %d stepped, %d fast-forwarded", cs, cf)
			}
			sl, fl := strings.Split(stepped, "\n"), strings.Split(skipped, "\n")
			for i := range sl {
				if sl[i] != fl[i] {
					t.Errorf("counters differ:\nstepped:        %s\nfast-forwarded: %s", sl[i], fl[i])
				}
			}
		})
	}
}

// TestMemSubsystemFastForwardStopsAtDrain: a drained testbench has no
// next event, so FastForward skips nothing and leaves the clock at the
// cycle the last reply came back, not at the limit.
func TestMemSubsystemFastForwardStopsAtDrain(t *testing.T) {
	cfg, _ := config.ByName("GF100")
	ms := gpu.NewMemSubsystem(cfg, nil)
	ms.Inject(0, 0x1000, 128)
	for !ms.Drained() {
		if ms.Step(); ms.Cycle() > 10_000 {
			t.Fatalf("one load not drained at cycle %d", ms.Cycle())
		}
	}
	drained := ms.Cycle()
	if ms.FastForward(drained+1_000) || ms.Cycle() != drained {
		t.Fatalf("FastForward on a testbench drained at cycle %d moved its clock to %d", drained, ms.Cycle())
	}
}
