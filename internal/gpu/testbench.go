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

	// pending[port] holds requests waiting for network injection;
	// pendOcc has bit port set while pending[port] is non-empty.
	pending [][]*mem.Request
	pendOcc uint64

	cycle   sim.Cycle
	nextID  uint64
	onReply func(c sim.Cycle, r *mem.Request)

	stats MemSubsystemStats
}

// MemSubsystemStats counts testbench activity.
type MemSubsystemStats struct {
	Injected  uint64
	Completed uint64
	Deferred  uint64 // injections delayed by backpressure
}

// NewMemSubsystem builds the testbench from a device configuration.
// onReply is invoked for every returned load (may be nil).
func NewMemSubsystem(cfg Config, onReply func(c sim.Cycle, r *mem.Request)) *MemSubsystem {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if onReply == nil {
		onReply = func(sim.Cycle, *mem.Request) {}
	}
	ms := &MemSubsystem{cfg: cfg, onReply: onReply, pending: make([][]*mem.Request, cfg.NumSMs)}
	ms.memFabric = newMemFabric(cfg, ".tb")
	return ms
}

// Cycle returns the current testbench cycle.
func (ms *MemSubsystem) Cycle() sim.Cycle { return ms.cycle }

// Stats returns the testbench counters.
func (ms *MemSubsystem) Stats() MemSubsystemStats { return ms.stats }

// Inject queues a tracked load of size bytes at address addr on
// injection port (pseudo-SM) port. The request is stamped as if it had
// just left an SM's L1.
func (ms *MemSubsystem) Inject(port int, addr uint64, size uint32) *mem.Request {
	if port < 0 || port >= ms.cfg.NumSMs {
		panic("gpu: testbench port out of range")
	}
	ms.nextID++
	r := &mem.Request{
		ID: ms.nextID, Addr: addr, Size: size,
		Kind: mem.KindLoad, Space: mem.SpaceGlobal,
		SM: port, Warp: 0,
		Log: &mem.StageLog{},
	}
	r.Log.Mark(mem.PtIssue, ms.cycle)
	r.Log.Mark(mem.PtCreated, ms.cycle)
	r.Log.Mark(mem.PtL1Access, ms.cycle)
	ms.pending[port] = append(ms.pending[port], r)
	ms.pendOcc |= 1 << uint(port)
	ms.stats.Injected++
	return r
}

// Step advances the testbench one cycle.
func (ms *MemSubsystem) Step() {
	c := ms.cycle
	for _, p := range ms.parts {
		p.Tick(c)
	}
	// Replies: partitions → reply net → callback.
	ms.sendReturns(c, ms.allParts)
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
		}
	}
	// Requests: pending → request net → partitions.
	for m := ms.pendOcc; m != 0; m &= m - 1 {
		port := bits.TrailingZeros64(m)
		for len(ms.pending[port]) > 0 {
			if !ms.reqNet.CanInject(port) {
				ms.stats.Deferred++
				break
			}
			r := ms.pending[port][0]
			ms.pending[port] = ms.pending[port][1:]
			if len(ms.pending[port]) == 0 {
				ms.pendOcc &^= 1 << uint(port)
			}
			r.Partition = ms.cfg.partitionOf(r.Addr)
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

// NextEvent returns the earliest cycle at which any testbench component
// can act. Synthetic injections waiting at the ports pin it at now.
func (ms *MemSubsystem) NextEvent(now sim.Cycle) sim.Cycle {
	if ms.pendOcc != 0 {
		return now
	}
	return ms.nextEvent(now)
}

// FastForward jumps the testbench clock to its next event, clamped to
// limit (the caller's measurement bound), and reports whether any cycles
// were skipped. Injection-driven measurement windows cannot skip — the
// caller injects per cycle — so this pays off in drain phases, where the
// testbench idles on in-flight DRAM traffic exactly like the full GPU.
func (ms *MemSubsystem) FastForward(limit sim.Cycle) bool {
	now := ms.cycle
	h := min(ms.NextEvent(now), limit)
	if h == sim.Never || h <= now {
		return false
	}
	ms.cycle = h
	return true
}

// Drained reports whether every injected request has completed.
func (ms *MemSubsystem) Drained() bool {
	return ms.stats.Completed >= ms.stats.Injected && ms.drained()
}
