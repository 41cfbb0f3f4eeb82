package mempart_test

import (
	"fmt"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/mem"
	"gpulat/internal/mempart"
	"gpulat/internal/sim"
)

// drainedSnapshot renders everything a partition tick could change: the
// partition's and its DRAM channel's state and counters, and its L2's.
func drainedSnapshot(p *mempart.Partition) string {
	s := fmt.Sprintf("%s %+v | %s %+v", p.DebugState(), p.Stats(), p.DRAM().DebugState(), p.DRAM().Stats())
	if p.L2() != nil {
		s += fmt.Sprintf(" | %+v", p.L2().Stats())
	}
	return s
}

// TestDrainedPartitionTickIsNoOp: a partition holding no request changes
// nothing when ticked. Neither engine ticks such a partition, so this
// test, not the tick == event gates, is what catches a per-cycle side
// effect there. Each preset's partition takes a seeded stream of loads
// and stores that misses in the L2, queues at the DRAM and stalls its
// stages, drains, and then must read the same after 1,000 more ticks.
func TestDrainedPartitionTickIsNoOp(t *testing.T) {
	for _, name := range config.Names() {
		t.Run(name, func(t *testing.T) {
			cfg, _ := config.ByName(name)
			p := mempart.New(cfg.Partition)
			pool := &mem.RequestPool{}
			p.SetRequestPool(pool)
			rng := sim.NewRNG(4601)
			var id uint64
			c := sim.Cycle(0)
			for ; c < 200_000 && (c < 4000 || !p.Drained()); c++ {
				if c < 4000 && p.CanAccept() && rng.Intn(4) == 0 {
					kind := mem.KindLoad
					if rng.Intn(3) == 0 {
						kind = mem.KindStore
					}
					r := pool.Get(kind == mem.KindLoad)
					id++
					r.ID, r.Addr, r.Size, r.Kind, r.Space = id, uint64(rng.Intn(1<<12))*128, 128, kind, mem.SpaceGlobal
					p.Accept(c, r)
				}
				p.Tick(c)
				for {
					r, ok := p.PopReturn(c)
					if !ok {
						break
					}
					pool.Put(r)
				}
			}
			if !p.Drained() {
				t.Fatalf("not drained after %d cycles: %s", c, p.DebugState())
			}
			if p.Stats().Arrivals < 300 || p.DRAM().Stats().Scheduled == 0 {
				t.Fatalf("stream too light to exercise the partition: %+v, DRAM %+v", p.Stats(), p.DRAM().Stats())
			}
			want := drainedSnapshot(p)
			for end := c + 1000; c < end; c++ {
				p.Tick(c)
			}
			if got := drainedSnapshot(p); got != want {
				t.Fatalf("ticking a drained partition changed it:\nbefore %s\nafter  %s", want, got)
			}
		})
	}
}
