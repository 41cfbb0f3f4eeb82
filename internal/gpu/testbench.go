package gpu

import (
	"math/bits"

	"gpulat/internal/icnt"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// MemSubsystem is an SM-less testbench over the memory system: the
// request network, partitions (ROP/L2/DRAM) and reply network of a
// Config, with synthetic injection ports where the SMs would be. It
// isolates the loaded behavior of the global memory pipeline from core
// effects — the substrate for latency-versus-offered-load studies.
type MemSubsystem struct {
	cfg Config
	memFabric

	// waiting[port][head[port]:] are the injections waiting for the
	// request network, oldest first; occ has bit port set while any wait.
	waiting [][]waitingLoad
	head    []int
	occ     uint64

	cycle   sim.Cycle
	nextID  uint64
	onReply func(c sim.Cycle, r *mem.Request)

	stats MemSubsystemStats
}

// waitingLoad is an injection the request network has not taken yet:
// 32 bytes, where its Request and StageLog would take ~300.
type waitingLoad struct {
	id, addr uint64
	at       sim.Cycle
	size     uint32
}

// MemSubsystemStats counts testbench activity.
type MemSubsystemStats struct {
	Injected  uint64
	Completed uint64
}

// NewMemSubsystem builds the testbench from a device configuration.
// onReply is invoked for every returned load (may be nil). The request
// it receives is valid only during the call: it goes back to the
// testbench's request pool when onReply returns, so copy what you keep.
func NewMemSubsystem(cfg Config, onReply func(c sim.Cycle, r *mem.Request)) *MemSubsystem {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if onReply == nil {
		onReply = func(sim.Cycle, *mem.Request) {}
	}
	ms := &MemSubsystem{cfg: cfg, onReply: onReply,
		waiting: make([][]waitingLoad, cfg.NumSMs), head: make([]int, cfg.NumSMs)}
	ms.memFabric = newMemFabric(cfg, ".tb")
	return ms
}

// Cycle returns the current testbench cycle.
func (ms *MemSubsystem) Cycle() sim.Cycle { return ms.cycle }

// Stats returns the testbench counters.
func (ms *MemSubsystem) Stats() MemSubsystemStats { return ms.stats }

// Inject queues a tracked load of size bytes at address addr on
// injection port (pseudo-SM) port. The load is stamped as if it had
// just left an SM's L1; its Request is made only when the request
// network takes it, with the ID and marks it was given here.
func (ms *MemSubsystem) Inject(port int, addr uint64, size uint32) {
	if port < 0 || port >= ms.cfg.NumSMs {
		panic("gpu: testbench port out of range")
	}
	ms.nextID++
	ms.waiting[port] = append(ms.waiting[port], waitingLoad{ms.nextID, addr, ms.cycle, size})
	ms.occ |= 1 << uint(port)
	ms.stats.Injected++
}

// Step advances the testbench one cycle.
func (ms *MemSubsystem) Step() {
	c := ms.cycle
	for m := ms.partOcc; m != 0; m &= m - 1 {
		pi := bits.TrailingZeros64(m)
		ms.parts[pi].Tick(c)
		ms.notePart(pi)
	}
	// Replies: partitions → reply net → callback → pool.
	ms.sendReturns(c, ms.retOcc)
	ms.replyNet.Tick(c)
	for m := ms.replyNet.EjectOccupied(); m != 0; m &= m - 1 {
		port := bits.TrailingZeros64(m)
		for {
			pkt, ok := ms.replyNet.PopEject(c, port)
			if !ok {
				break
			}
			pkt.Req.Log.Mark(mem.PtReturnSM, c)
			ms.stats.Completed++
			ms.onReply(c, pkt.Req)
			ms.pool.Put(pkt.Req)
		}
	}
	// Requests: waiting → request net → partitions.
	for m := ms.occ; m != 0; m &= m - 1 {
		port := bits.TrailingZeros64(m)
		for ms.occ&(1<<uint(port)) != 0 && ms.reqNet.CanInject(port) {
			r := ms.materialize(port, ms.pop(port))
			r.Log.Mark(mem.PtICNTInject, c)
			ms.reqNet.Inject(c, port, icnt.Packet{
				Req: r, Dst: r.Partition, Size: ms.cfg.ControlPacketBytes,
			})
		}
	}
	ms.reqNet.Tick(c)
	ms.acceptRequests(c)
	ms.cycle++
}

// pop removes port's oldest waiting injection. The queue keeps its
// storage: it restarts at the front when the port empties and moves its
// live tail down once the head has passed half of it.
func (ms *MemSubsystem) pop(port int) waitingLoad {
	q, h := ms.waiting[port], ms.head[port]
	w := q[h]
	if h++; h == len(q) {
		q, h = q[:0], 0
		ms.occ &^= 1 << uint(port)
	} else if 2*h > len(q) {
		q, h = q[:copy(q, q[h:])], 0
	}
	ms.waiting[port], ms.head[port] = q, h
	return w
}

// materialize makes the pooled Request for waiting injection w on port,
// as Inject would have made it at cycle w.at.
func (ms *MemSubsystem) materialize(port int, w waitingLoad) *mem.Request {
	r := ms.pool.Get(true)
	r.ID, r.Addr, r.Size = w.id, w.addr, w.size
	r.Kind, r.Space, r.SM = mem.KindLoad, mem.SpaceGlobal, port
	r.Partition = ms.cfg.partitionOf(w.addr)
	r.Log.Mark(mem.PtIssue, w.at)
	r.Log.Mark(mem.PtCreated, w.at)
	r.Log.Mark(mem.PtL1Access, w.at)
	return r
}

// NextEvent returns the earliest cycle at which any testbench component
// can act. Synthetic injections waiting at the ports pin it at now.
func (ms *MemSubsystem) NextEvent(now sim.Cycle) sim.Cycle {
	if ms.occ != 0 {
		return now
	}
	return ms.nextEvent(now)
}

// FastForward jumps the testbench clock to its next event, clamped to
// limit (the caller's measurement bound), and reports whether any cycles
// were skipped. A drained testbench has no next event and stays put.
// Injection-driven measurement windows cannot skip — the caller injects
// per cycle — so this pays off in drain phases, where the testbench
// idles on in-flight DRAM traffic exactly like the full GPU.
func (ms *MemSubsystem) FastForward(limit sim.Cycle) bool {
	if h := ms.NextEvent(ms.cycle); h != sim.Never && min(h, limit) > ms.cycle {
		ms.cycle = min(h, limit)
		return true
	}
	return false
}

// Drained reports whether every injected request has completed.
func (ms *MemSubsystem) Drained() bool {
	return ms.stats.Completed >= ms.stats.Injected && ms.drained()
}
