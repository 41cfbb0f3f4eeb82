// Package icnt models the on-chip interconnection network between the
// SMs and the memory partitions as a crossbar with per-port injection and
// ejection queues, a fixed traversal latency, finite link bandwidth, and
// round-robin output arbitration. Two instances are used per GPU: a
// request network (SM → partition) and a reply network (partition → SM).
// Time spent queued at injection — the "loaded queue ... between the SM's
// L1 cache and the interconnection network" — is the paper's L1toICNT
// latency component, one of the two dominant contributors in Figure 1.
//
// Arbitration (Tick) costs O(occupied ports) a cycle, kept in bitmasks
// of non-empty injection and ejection queues: an input's head packet
// names exactly one output, so one pass over the occupied inputs sorts
// the ready heads into a per-output bitmask of requesters, and each
// requested or occupied output (a full one counts EjectBlocked) then
// grants the first set bit at or after its round-robin pointer. An
// empty network therefore costs two mask tests.
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

// Validate reports the first field of c that no crossbar can be built from.
func (c Config) Validate() error {
	switch {
	case c.Inputs <= 0 || c.Outputs <= 0:
		return fmt.Errorf("icnt %s: ports must be positive", c.Name)
	case c.Inputs > 64:
		return fmt.Errorf("icnt %s: %d inputs, but arbitration keeps an output's requesters in one 64-bit mask", c.Name, c.Inputs)
	case c.Outputs > 64:
		return fmt.Errorf("icnt %s: %d outputs, but the occupied ejection queues are one 64-bit mask", c.Name, c.Outputs)
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
	// Bit i is set while injection (ejection) queue i holds a packet.
	injOcc, ejOcc uint64

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
	if err := cfg.Validate(); err != nil {
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

// Release drops everything but the config and the counters.
func (x *Crossbar) Release() { *x = Crossbar{cfg: x.cfg, stats: x.stats} }

// CanInject reports whether input port i can accept a packet.
func (x *Crossbar) CanInject(i int) bool { return x.inject[i].CanPush() }

// NoteInjectStall records upstream backpressure at an input port.
func (x *Crossbar) NoteInjectStall(int) { x.stats.InjectStalls++ }

// Inject places a packet into input port i's queue at cycle c. The caller
// must check CanInject; injection into a full queue panics.
func (x *Crossbar) Inject(c sim.Cycle, i int, p Packet) {
	if p.Dst < 0 || p.Dst >= x.cfg.Outputs {
		panic(fmt.Sprintf("icnt %s: bad destination %d", x.cfg.Name, p.Dst))
	}
	x.inject[i].Push(c, p)
	x.injOcc |= 1 << uint(i)
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
// a granted one is not a candidate until the next cycle. A visit clears
// its output's want entry, so want is all zero between ticks.
func (x *Crossbar) Tick(c sim.Cycle) {
	want, inject, eject := x.want, x.inject, x.eject
	var requested uint64
	for in := x.injOcc; in != 0; in &= in - 1 {
		i := bits.TrailingZeros64(in)
		if pkt, ok := inject[i].Peek(c); ok {
			want[pkt.Dst] |= 1 << uint(i)
			requested |= 1 << uint(pkt.Dst)
		}
	}
	for out := requested | x.ejOcc; out != 0; out &= out - 1 {
		o := bits.TrailingZeros64(out)
		m := want[o]
		want[o] = 0
		if x.outBusy[o] > c {
			continue
		}
		if !eject[o].CanPush() {
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
		pkt, _ := inject[i].Pop(c)
		if inject[i].Len() == 0 {
			x.injOcc &^= 1 << uint(i)
		}
		eject[o].Push(c, pkt)
		x.ejOcc |= 1 << uint(o)
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
		if x.eject[o].Len() == 0 {
			x.ejOcc &^= 1 << uint(o)
		}
	}
	return p, ok
}

// EjectOccupied returns the output ports whose ejection queues hold a
// packet, bit o for port o: the only ports a PopEject can succeed on.
func (x *Crossbar) EjectOccupied() uint64 { return x.ejOcc }

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
	for out := x.ejOcc; out != 0; out &= out - 1 {
		if h = min(h, max(now, x.eject[bits.TrailingZeros64(out)].NextReady())); h == now {
			return now
		}
	}
	for in := x.injOcc; in != 0; in &= in - 1 {
		// Injection queues have zero latency: a queued head is visible.
		pkt, _ := x.inject[bits.TrailingZeros64(in)].Head()
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

// AuditOccupancy checks the occupancy masks against the queues they
// summarise (the engine's wake audit calls it).
func (x *Crossbar) AuditOccupancy() error {
	if in, out := occupied(x.inject), occupied(x.eject); in != x.injOcc || out != x.ejOcc {
		return fmt.Errorf("icnt %s: occupancy masks inject %#x eject %#x, queues give %#x %#x", x.cfg.Name, x.injOcc, x.ejOcc, in, out)
	}
	return nil
}

func occupied(qs []*sim.Queue[Packet]) (m uint64) {
	for i, q := range qs {
		if q.Len() > 0 {
			m |= 1 << uint(i)
		}
	}
	return m
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
