package icnt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:        "test",
		Inputs:      4,
		Outputs:     2,
		Latency:     8,
		FlitBytes:   32,
		InjectDepth: 4,
		EjectDepth:  4,
	}
}

func pkt(id uint64, dst int, size uint32) Packet {
	return Packet{Req: &mem.Request{ID: id}, Dst: dst, Size: size}
}

func TestTraversalLatency(t *testing.T) {
	x := New(testConfig())
	x.Inject(0, 0, pkt(1, 1, 8))
	x.Tick(0) // forwarded at cycle 0, visible at 0+latency
	for c := sim.Cycle(1); c < 8; c++ {
		x.Tick(c)
		if _, ok := x.PopEject(c, 1); ok {
			t.Fatalf("packet visible at cycle %d, before latency %d", c, 8)
		}
	}
	p, ok := x.PopEject(8, 1)
	if !ok || p.Req.ID != 1 {
		t.Fatalf("packet not delivered at latency: ok=%v", ok)
	}
}

func TestWrongPortStaysEmpty(t *testing.T) {
	x := New(testConfig())
	x.Inject(0, 0, pkt(1, 1, 8))
	for c := sim.Cycle(0); c < 20; c++ {
		x.Tick(c)
		if _, ok := x.PopEject(c, 0); ok {
			t.Fatal("packet delivered to wrong output")
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	cfg := testConfig()
	x := New(cfg)
	// Two 64-byte packets from the same input to the same output: the
	// second must wait 2 cycles (64/32 flits) for the link.
	x.Inject(0, 0, pkt(1, 0, 64))
	x.Inject(0, 0, pkt(2, 0, 64))
	var got []sim.Cycle
	for c := sim.Cycle(0); c < 40 && len(got) < 2; c++ {
		x.Tick(c)
		if _, ok := x.PopEject(c, 0); ok {
			got = append(got, c)
		}
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d packets", len(got))
	}
	if got[1]-got[0] != 2 {
		t.Fatalf("64B packets spaced %d cycles on 32B/cycle link, want 2", got[1]-got[0])
	}
}

func TestRoundRobinFairness(t *testing.T) {
	cfg := testConfig()
	cfg.Inputs = 3
	cfg.EjectDepth = 64
	x := New(cfg)
	// Each input holds packets for output 0; deliveries must rotate.
	for i := 0; i < 3; i++ {
		x.Inject(0, i, pkt(uint64(10+i), 0, 8))
		x.Inject(0, i, pkt(uint64(20+i), 0, 8))
	}
	var order []uint64
	for c := sim.Cycle(0); c < 60 && len(order) < 6; c++ {
		x.Tick(c)
		if p, ok := x.PopEject(c, 0); ok {
			order = append(order, p.Req.ID)
		}
	}
	if len(order) != 6 {
		t.Fatalf("delivered %d of 6", len(order))
	}
	// First three deliveries must come from three distinct inputs.
	seen := map[uint64]bool{}
	for _, id := range order[:3] {
		seen[id%10] = true
	}
	if len(seen) != 3 {
		t.Fatalf("arbitration starved an input: order=%v", order)
	}
}

func TestEjectBackpressureBlocksForwarding(t *testing.T) {
	cfg := testConfig()
	cfg.EjectDepth = 1
	cfg.Latency = 0
	x := New(cfg)
	x.Inject(0, 0, pkt(1, 0, 8))
	x.Inject(0, 0, pkt(2, 0, 8))
	x.Tick(0)
	x.Tick(1) // eject queue full: packet 2 must remain at input
	if x.inject[0].Len() != 1 {
		t.Fatalf("packet forwarded into full ejection queue; inject len=%d", x.inject[0].Len())
	}
	if x.Stats().EjectBlocked == 0 {
		t.Fatal("EjectBlocked not counted")
	}
	// Drain one; now the second moves.
	x.PopEject(1, 0)
	x.Tick(2)
	if _, ok := x.PopEject(2, 0); !ok {
		t.Fatal("packet not forwarded after drain")
	}
}

func TestInjectBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.InjectDepth = 2
	x := New(cfg)
	x.Inject(0, 0, pkt(1, 0, 8))
	x.Inject(0, 0, pkt(2, 0, 8))
	if x.CanInject(0) {
		t.Fatal("inject queue should be full")
	}
	x.NoteInjectStall(0)
	if x.Stats().InjectStalls != 1 {
		t.Fatal("stall not counted")
	}
}

func TestBadDestinationPanics(t *testing.T) {
	x := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Inject(0, 0, pkt(1, 5, 8))
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Inputs = 0 },
		func(c *Config) { c.Outputs = 0 },
		func(c *Config) { c.FlitBytes = 0 },
		func(c *Config) { c.InjectDepth = 0 },
		func(c *Config) { c.EjectDepth = 0 },
		func(c *Config) { c.Inputs = 65 },
		func(c *Config) { c.Outputs = 65 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestTooManyInputsNamesTheLimit: the 64-input bound is a property of
// the arbitration mask, and the refusal says so.
func TestTooManyInputsNamesTheLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Inputs = 64
	if err := cfg.validate(); err != nil {
		t.Fatalf("64 inputs refused: %v", err)
	}
	cfg.Inputs = 65
	err := cfg.validate()
	if err == nil || !strings.Contains(err.Error(), "65 inputs") || !strings.Contains(err.Error(), "64-bit mask") {
		t.Fatalf("65 inputs: got %v, want an error naming the 64-bit mask", err)
	}
}

// refCrossbar is a crossbar stepped by the scans the occupancy masks and
// the requester bitmasks replaced. It shares Crossbar's queues, Inject
// and PopEject, and reads neither occupancy mask, so lock-stepping it
// with a Crossbar proves the mask walks skip only ports that cannot act.
type refCrossbar struct{ *Crossbar }

// scanTick is the arbitration Tick the requester bitmasks replaced: for
// every free output, scan all inputs from the round-robin pointer and
// re-read each head. It is O(inputs × outputs) and kept only as the
// reference the mask arbitration is proven against, grant for grant.
func (x refCrossbar) scanTick(c sim.Cycle) {
	granted := make([]bool, x.cfg.Inputs)
	for o := 0; o < x.cfg.Outputs; o++ {
		if x.outBusy[o] > c {
			continue
		}
		if !x.eject[o].CanPush() {
			x.stats.EjectBlocked++
			continue
		}
		start := x.rr[o]
		for k := 0; k < x.cfg.Inputs; k++ {
			i := (start + k) % x.cfg.Inputs
			if granted[i] {
				continue
			}
			pkt, ok := x.inject[i].Peek(c)
			if !ok || pkt.Dst != o {
				continue
			}
			x.inject[i].Pop(c)
			x.eject[o].Push(c, pkt)
			x.outBusy[o] = c + x.occupancy(pkt.Size)
			x.rr[o] = (i + 1) % x.cfg.Inputs
			granted[i] = true
			break
		}
	}
}

// sameState compares what DebugState renders — every queue's occupancy
// and head readiness, the busy windows, the round-robin pointers —
// without formatting it 20k times a case.
func sameState(a, b *Crossbar) bool {
	sameQueues := func(qa, qb []*sim.Queue[Packet]) bool {
		for i := range qa {
			if qa[i].Len() != qb[i].Len() || qa[i].NextReady() != qb[i].NextReady() {
				return false
			}
		}
		return true
	}
	return slices.Equal(a.rr, b.rr) && slices.Equal(a.outBusy, b.outBusy) &&
		sameQueues(a.inject, b.inject) && sameQueues(a.eject, b.eject)
}

// TestArbitrationMatchesReferenceScan drives two crossbars — one ticked
// by Tick, one by scanTick — with identical seeded traffic: random
// destinations, mixed packet sizes (so output busy windows differ),
// bursts and lulls of injection, and consumers that pop eagerly in some
// phases and rarely in others (so ejection queues fill and outputs
// block). Every cycle both must hold the same full state (queue
// occupancy, busy windows, round-robin pointers), pop the same packets,
// and count the same stats, EjectBlocked included.
func TestArbitrationMatchesReferenceScan(t *testing.T) {
	const cycles = 20000
	sizes := []uint32{8, 32, 40, 128, 136}
	for _, inputs := range []int{1, 2, 15, 30, 64} {
		for _, outputs := range []int{1, 6, 8} {
			t.Run(fmt.Sprintf("%dx%d", inputs, outputs), func(t *testing.T) {
				cfg := Config{Name: "lock", Inputs: inputs, Outputs: outputs,
					Latency: 3, FlitBytes: 32, InjectDepth: 4, EjectDepth: 2}
				got, ref := New(cfg), refCrossbar{New(cfg)}
				rng := rand.New(rand.NewSource(int64(1000*inputs + outputs)))
				var id uint64
				for c := sim.Cycle(0); c < cycles; c++ {
					// Injection pressure changes every 256 cycles, from
					// nearly idle to saturating.
					load := []int{2, 30, 70, 100}[(c/256)%4]
					for i := 0; i < inputs; i++ {
						if rng.Intn(100) >= load || !got.CanInject(i) {
							continue
						}
						id++
						p := pkt(id, rng.Intn(outputs), sizes[rng.Intn(len(sizes))])
						got.Inject(c, i, p)
						ref.Inject(c, i, p)
					}
					got.Tick(c)
					ref.scanTick(c)
					if !sameState(got, ref.Crossbar) {
						t.Fatalf("cycle %d: state diverged\nmask: %s\nscan: %s", c, got.DebugState(), ref.DebugState())
					}
					drain := []int{90, 50, 4}[(c/1024)%3]
					for o := 0; o < outputs; o++ {
						if rng.Intn(100) >= drain {
							continue // consumer not ready: back-pressure
						}
						pg, okg := got.PopEject(c, o)
						pr, okr := ref.PopEject(c, o)
						if okg != okr || pg != pr {
							t.Fatalf("cycle %d output %d: popped %+v/%v, reference %+v/%v", c, o, pg, okg, pr, okr)
						}
					}
				}
				if got.Stats() != ref.Stats() {
					t.Fatalf("stats diverged:\nmask: %+v\nscan: %+v", got.Stats(), ref.Stats())
				}
				if st := got.Stats(); st.Delivered == 0 || st.EjectBlocked == 0 {
					t.Fatalf("traffic too light to prove anything: %+v", st)
				}
			})
		}
	}
}

// Tick and NextEvent are the full-port scans the occupancy masks
// replaced: every input is peeked and every output visited each cycle.
func (x refCrossbar) Tick(c sim.Cycle) {
	want := x.want
	clear(want)
	for i, q := range x.inject {
		if pkt, ok := q.Peek(c); ok {
			want[pkt.Dst] |= 1 << uint(i)
		}
	}
	for o, m := range want {
		if x.outBusy[o] > c {
			continue
		}
		if !x.eject[o].CanPush() {
			x.stats.EjectBlocked++
			continue
		}
		if m == 0 {
			continue
		}
		from := m &^ (1<<uint(x.rr[o]) - 1)
		if from == 0 {
			from = m
		}
		i := bits.TrailingZeros64(from)
		pkt, _ := x.inject[i].Pop(c)
		x.eject[o].Push(c, pkt)
		x.outBusy[o] = c + x.occupancy(pkt.Size)
		x.rr[o] = (i + 1) % x.cfg.Inputs
	}
}

func (x refCrossbar) NextEvent(now sim.Cycle) sim.Cycle {
	h := sim.Never
	for _, q := range x.eject {
		if q.Len() > 0 {
			if h = min(h, max(now, q.NextReady())); h == now {
				return now
			}
		}
	}
	for _, q := range x.inject {
		if q.Len() == 0 {
			continue
		}
		pkt, ok := q.Peek(now)
		if !ok {
			h = min(h, max(now, q.NextReady()))
			continue
		}
		if x.eject[pkt.Dst].CanPush() {
			if h = min(h, max(now, x.outBusy[pkt.Dst])); h == now {
				return now
			}
		}
	}
	return h
}

// TestOccupancyMasksMatchFullScan lock-steps a Crossbar with refCrossbar
// over seeded random traffic: 1 to 64 ports a side, ejection depth 1 and
// consumers that skip pops at random, so full ejection queues block
// outputs nobody is requesting. Every cycle both must pop the same
// packets, count the same Stats (EjectBlocked included) and report the
// same NextEvent, and the masks must match the queues.
func TestOccupancyMasksMatchFullScan(t *testing.T) {
	sizes := []uint32{8, 40, 136}
	var blocked uint64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Name: "occ", Inputs: 1 + rng.Intn(64), Outputs: 1 + rng.Intn(64),
			Latency: sim.Cycle(rng.Intn(6)), FlitBytes: 32, InjectDepth: 1 + rng.Intn(4), EjectDepth: 1}
		got, ref := New(cfg), refCrossbar{New(cfg)}
		load, drain := 1+rng.Intn(60), 5+rng.Intn(90)
		var id uint64
		for c := sim.Cycle(0); c < 1500; c++ {
			for i := 0; i < cfg.Inputs; i++ {
				if rng.Intn(100) >= load || !got.CanInject(i) {
					continue
				}
				id++
				p := pkt(id, rng.Intn(cfg.Outputs), sizes[rng.Intn(len(sizes))])
				got.Inject(c, i, p)
				ref.Inject(c, i, p)
			}
			got.Tick(c)
			ref.Tick(c)
			for o := 0; o < cfg.Outputs; o++ {
				if rng.Intn(100) >= drain {
					continue
				}
				pg, okg := got.PopEject(c, o)
				pr, okr := ref.PopEject(c, o)
				if okg != okr || pg != pr {
					t.Fatalf("seed %d cycle %d output %d: popped %+v/%v, full scan %+v/%v", seed, c, o, pg, okg, pr, okr)
				}
			}
			if got.Stats() != ref.Stats() {
				t.Fatalf("seed %d cycle %d: stats %+v, full scan %+v", seed, c, got.Stats(), ref.Stats())
			}
			if hg, hr := got.NextEvent(c+1), ref.NextEvent(c+1); hg != hr {
				t.Fatalf("seed %d cycle %d: NextEvent %d, full scan %d (%s)", seed, c, hg, hr, got.DebugState())
			}
			if err := got.AuditOccupancy(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, c, err)
			}
		}
		blocked += got.Stats().EjectBlocked
	}
	if blocked == 0 {
		t.Fatal("no output ever blocked: the traffic proves nothing about EjectBlocked")
	}
}

// Property: every injected packet is delivered exactly once to its
// destination, in per-(input,output) FIFO order.
func TestDeliveryProperty(t *testing.T) {
	f := func(dsts []uint8) bool {
		cfg := testConfig()
		cfg.InjectDepth = 256
		cfg.EjectDepth = 256
		x := New(cfg)
		if len(dsts) > 64 {
			dsts = dsts[:64]
		}
		type key struct{ in, out int }
		want := map[key][]uint64{}
		for i, d := range dsts {
			in := i % cfg.Inputs
			out := int(d) % cfg.Outputs
			id := uint64(i + 1)
			x.Inject(0, in, Packet{Req: &mem.Request{ID: id, SM: in}, Dst: out, Size: 8})
			want[key{in, out}] = append(want[key{in, out}], id)
		}
		got := map[key][]uint64{}
		total := 0
		for c := sim.Cycle(0); c < 10000 && total < len(dsts); c++ {
			x.Tick(c)
			for o := 0; o < cfg.Outputs; o++ {
				if p, ok := x.PopEject(c, o); ok {
					got[key{p.Req.SM, o}] = append(got[key{p.Req.SM, o}], p.Req.ID)
					total++
				}
			}
		}
		if total != len(dsts) || x.Pending() != 0 {
			return false
		}
		for k, w := range want {
			g := got[k]
			if len(g) != len(w) {
				return false
			}
			for i := range w {
				if g[i] != w[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
