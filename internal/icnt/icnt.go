// Package icnt models the on-chip interconnection network between the
// SMs and the memory partitions as a crossbar with per-port injection and
// ejection queues, a fixed traversal latency, finite link bandwidth, and
// round-robin output arbitration. Two instances are used per GPU: a
// request network (SM → partition) and a reply network (partition → SM).
// Time spent queued at injection — the "loaded queue ... between the SM's
// L1 cache and the interconnection network" — is the paper's L1toICNT
// latency component, one of the two dominant contributors in Figure 1.
//
// Arbitration (Tick) costs O(inputs + outputs) a cycle, not their
// product: an input's head packet names exactly one output, so one pass
// over the inputs sorts the ready heads into a per-output bitmask of
// requesters, and each free output then grants the first set bit at or
// after its round-robin pointer. An empty network therefore costs one
// length check per input and one busy-window compare per output.
//
// Under the event engine the crossbar wakes (NextEvent) when a packet
// in traversal arrives at its output port or an ejection-queue head is
// ready for its consumer; a packet freshly injected the same cycle
// forces a tick directly (zero-latency injection queues), so the
// network never needs a speculative now-pin of its own.
package icnt

import (
	"fmt"
	"math/bits"
	"strings"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// Packet is one network transfer unit carrying a memory request or reply.
type Packet struct {
	Req *mem.Request
	// Dst is the destination output port.
	Dst int
	// Size is the packet payload in bytes; data-bearing packets (write
	// requests, read replies) are larger than header-only packets and
	// occupy link bandwidth proportionally.
	Size uint32
}

// Config describes one crossbar instance.
type Config struct {
	Name    string
	Inputs  int
	Outputs int
	// Latency is the pipeline traversal time from injection-queue exit
	// to ejection-queue visibility.
	Latency sim.Cycle
	// FlitBytes is the per-cycle link bandwidth; a packet occupies its
	// output port for ceil(Size/FlitBytes) cycles.
	FlitBytes uint32
	// InjectDepth and EjectDepth bound the per-port queues.
	InjectDepth int
	EjectDepth  int
}

func (c Config) validate() error {
	switch {
	case c.Inputs <= 0 || c.Outputs <= 0:
		return fmt.Errorf("icnt %s: ports must be positive", c.Name)
	case c.Inputs > 64:
		return fmt.Errorf("icnt %s: %d inputs, but arbitration keeps an output's requesters in one 64-bit mask", c.Name, c.Inputs)
	case c.FlitBytes == 0:
		return fmt.Errorf("icnt %s: flit bytes must be positive", c.Name)
	case c.InjectDepth <= 0 || c.EjectDepth <= 0:
		return fmt.Errorf("icnt %s: queue depths must be positive", c.Name)
	}
	return nil
}

// Crossbar is one network instance.
type Crossbar struct {
	cfg     Config
	inject  []*sim.Queue[Packet]
	eject   []*sim.Queue[Packet]
	outBusy []sim.Cycle
	rr      []int
	// want is Tick's per-cycle arbitration scratch: want[o] has bit i set
	// when input i's head packet is ready and addressed to output o.
	want []uint64

	stats Stats
}

// Stats counts network activity.
type Stats struct {
	Injected     uint64
	Delivered    uint64
	InjectStalls uint64
	// EjectBlocked counts per-cycle observations of a free output with a
	// full ejection queue. It is the one counter that may differ between
	// the tick and event engines: the event kernel can legitimately skip
	// cycles in which the only activity is this observation.
	EjectBlocked uint64
}

// New constructs a crossbar; it panics on invalid configuration.
func New(cfg Config) *Crossbar {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	x := &Crossbar{
		cfg:     cfg,
		inject:  make([]*sim.Queue[Packet], cfg.Inputs),
		eject:   make([]*sim.Queue[Packet], cfg.Outputs),
		outBusy: make([]sim.Cycle, cfg.Outputs),
		rr:      make([]int, cfg.Outputs),
		want:    make([]uint64, cfg.Outputs),
	}
	for i := range x.inject {
		x.inject[i] = sim.NewQueue[Packet](fmt.Sprintf("%s.inject%d", cfg.Name, i), cfg.InjectDepth, 0)
	}
	for o := range x.eject {
		// The ejection queue doubles as the traversal pipeline: packets
		// occupy it for Latency cycles, so its capacity must cover the
		// pipeline occupancy on top of the configured buffering or the
		// link could never sustain one packet per cycle.
		x.eject[o] = sim.NewQueue[Packet](fmt.Sprintf("%s.eject%d", cfg.Name, o), cfg.EjectDepth+int(cfg.Latency), cfg.Latency)
	}
	return x
}

// Config returns the crossbar configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// Stats returns a snapshot of the counters.
func (x *Crossbar) Stats() Stats { return x.stats }

// CanInject reports whether input port i can accept a packet.
func (x *Crossbar) CanInject(i int) bool { return x.inject[i].CanPush() }

// NoteInjectStall records upstream backpressure at input i.
func (x *Crossbar) NoteInjectStall(i int) { x.stats.InjectStalls++; x.inject[i].NoteStall() }

// Inject places a packet into input port i's queue at cycle c. The caller
// must check CanInject; injection into a full queue panics.
func (x *Crossbar) Inject(c sim.Cycle, i int, p Packet) {
	if p.Dst < 0 || p.Dst >= x.cfg.Outputs {
		panic(fmt.Sprintf("icnt %s: bad destination %d", x.cfg.Name, p.Dst))
	}
	x.inject[i].Push(c, p)
	x.stats.Injected++
}

// occupancy returns the cycles a packet holds its output link.
func (x *Crossbar) occupancy(size uint32) sim.Cycle {
	fl := (size + x.cfg.FlitBytes - 1) / x.cfg.FlitBytes
	if fl == 0 {
		fl = 1
	}
	return sim.Cycle(fl)
}

// Tick arbitrates each output port: round-robin over inputs whose head
// packet targets the port. An input forwards at most one packet per
// cycle — its head is read once, before any grant, so the packet behind
// a granted one is not a candidate until the next cycle.
func (x *Crossbar) Tick(c sim.Cycle) {
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
		// First requester at or after the pointer, else wrap to the lowest.
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

// PopEject removes the packet at output port o if one has completed
// traversal by cycle c.
func (x *Crossbar) PopEject(c sim.Cycle, o int) (Packet, bool) {
	p, ok := x.eject[o].Pop(c)
	if ok {
		x.stats.Delivered++
	}
	return p, ok
}

// NextEvent implements the event-driven kernel's horizon contract. A
// packet inside the traversal pipeline bounds the horizon by its
// ejection-readiness; a packet waiting at injection bounds it by its
// output port's busy window. A head packet blocked on a full ejection
// queue contributes nothing extra: space can only appear when the
// ejection head is popped externally, and that head's own readiness term
// is always the earlier bound.
func (x *Crossbar) NextEvent(now sim.Cycle) sim.Cycle {
	// Early exits throughout: the horizon is floored at now, so the first
	// term that reaches it ends the scan (the event engine re-arms after
	// every tick, making this a hot path).
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
			// Unreachable with zero-latency injection queues, but stay
			// conservative if that ever changes.
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

// DebugState renders the crossbar's full semantic state — per-port
// occupancy and readiness, output busy windows, arbitration pointers —
// for the engine-equivalence audit.
func (x *Crossbar) DebugState() string {
	var b strings.Builder
	for i, q := range x.inject {
		if q.Len() > 0 {
			fmt.Fprintf(&b, "i%d=%d@%d ", i, q.Len(), q.NextReady())
		}
	}
	for o, q := range x.eject {
		if q.Len() > 0 {
			fmt.Fprintf(&b, "e%d=%d@%d ", o, q.Len(), q.NextReady())
		}
	}
	fmt.Fprintf(&b, "busy=%v rr=%v", x.outBusy, x.rr)
	return b.String()
}

// Pending returns the total number of packets buffered anywhere in the
// network (drain check).
func (x *Crossbar) Pending() int {
	n := 0
	for _, q := range x.inject {
		n += q.Len()
	}
	for _, q := range x.eject {
		n += q.Len()
	}
	return n
}
