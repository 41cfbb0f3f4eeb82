package sched

import (
	"fmt"
	"strings"

	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// DefaultStream is the stream the classic single-kernel launch path
// enqueues on.
const DefaultStream = "default"

// KernelStats are the per-kernel dispatch counters the interference
// experiments reconcile against the device totals.
type KernelStats struct {
	// BlocksDispatched counts blocks placed on SMs; BlocksRetired counts
	// blocks whose warps all completed. The kernel is done when both
	// equal its grid size.
	BlocksDispatched int `metric:"gpulat_sim_kernel_blocks_dispatched,gauge,Blocks of the kernel placed on SMs."`
	BlocksRetired    int `metric:"gpulat_sim_kernel_blocks_retired,gauge,Blocks of the kernel that ran to completion."`
	// LaunchedAt is the cycle the kernel became head of its stream and
	// began dispatching; CompletedAt is the cycle its last block retired
	// (0 until then).
	LaunchedAt  sim.Cycle `metric:"gpulat_sim_kernel_launched_cycle,gauge,Cycle the kernel began dispatching."`
	CompletedAt sim.Cycle `metric:"gpulat_sim_kernel_completed_cycle,gauge,Cycle the kernel's last block retired (0 while running)."`
}

// KernelState is one launched (or queued) kernel's dispatch bookkeeping.
type KernelState struct {
	// ID is the device-wide launch sequence number; requests issued on
	// behalf of this kernel are tagged with it for per-kernel latency and
	// exposure attribution.
	ID int
	// Stream names the stream the kernel was enqueued on.
	Stream string
	// Kernel is the launched grid.
	Kernel *sm.Kernel

	nextBlock  int
	active     bool
	completed  bool
	stats      KernelStats
	placements []int // SM ID per ctaid, in dispatch order
}

// Active reports whether the kernel has started dispatching and is not
// yet complete.
func (k *KernelState) Active() bool { return k.active && !k.completed }

// Done reports whether every block of the kernel has retired.
func (k *KernelState) Done() bool { return k.completed }

// Stats returns the kernel's dispatch counters.
func (k *KernelState) Stats() KernelStats { return k.stats }

// CyclesResident is the span from first dispatch to last block retire
// (0 while the kernel is still running).
func (k *KernelState) CyclesResident() sim.Cycle {
	if !k.completed {
		return 0
	}
	return k.stats.CompletedAt - k.stats.LaunchedAt
}

// Placements returns the SM that received each block, indexed by ctaid
// in dispatch order (the spatial-partitioning invariant tests read it).
func (k *KernelState) Placements() []int { return k.placements }

// stream is one in-order kernel queue.
type stream struct {
	name   string
	queue  []*KernelState
	cursor int // spatial placement: rotating scan start within the slice
}

func (st *stream) head() *KernelState {
	if len(st.queue) == 0 {
		return nil
	}
	return st.queue[0]
}

// Dispatcher is the GigaThread-style block dispatch engine: it owns the
// streams, places blocks of every stream-head kernel onto SMs under the
// configured placement policy, and tracks per-kernel completion.
//
// Block placement scans the candidate SMs with a rotating start cursor:
// each scan resumes after the SM that received the previous block, which
// is what makes a fill breadth-first. While more than one stream exists
// the cursor also persists across dispatch calls, so repeated mid-run
// refill calls do not systematically hand SM 0 (and its warmed L1) to
// whichever stream is scanned first — without the carry-over, every
// refill scan would restart at SM 0 and the first stream would
// monopolize the low-numbered SMs. With a single stream the cursor
// resets at every call, reproducing the classic dispatcher exactly:
// carrying it over would reorder mid-grid refills of oversubscribed
// grids (a measurable timing change), and single-kernel runs are
// required to stay byte-identical with the pre-stream baselines the
// reproduction's determinism gates pin. Dispatch decisions depend only
// on SM occupancy, never on time, so the tick and event engines see
// identical placements.
type Dispatcher struct {
	sms       []*sm.SM
	placement Placement

	streams []*stream
	byName  map[string]*stream
	kernels []*KernelState

	cursor int // shared placement: rotating scan start over all SMs

	launched int // kernels that began dispatching (device KernelsLaunched)
	blocks   int // blocks placed (device BlocksDispatch)
}

// NewDispatcher builds a dispatcher over the device's SMs.
func NewDispatcher(sms []*sm.SM, placement Placement) *Dispatcher {
	return &Dispatcher{
		sms:       sms,
		placement: placement,
		byName:    make(map[string]*stream),
	}
}

// Enqueue validates kernel k and appends it to the named stream,
// creating the stream on first use. Kernels on one stream run in order;
// kernels on different streams co-run. The returned state is live: its
// stats fill in as the kernel dispatches and retires.
func (d *Dispatcher) Enqueue(streamName string, k *sm.Kernel) (*KernelState, error) {
	if k.GridDim <= 0 || k.BlockDim <= 0 {
		return nil, fmt.Errorf("sched: kernel grid and block dims must be positive (grid=%d, block=%d)", k.GridDim, k.BlockDim)
	}
	if len(d.sms) > 0 {
		cfg := d.sms[0].Config()
		if k.WarpsPerBlock(cfg.WarpSize) > cfg.MaxWarps {
			return nil, fmt.Errorf("sched: block of %d threads needs %d warps, exceeding the SM capacity of %d",
				k.BlockDim, k.WarpsPerBlock(cfg.WarpSize), cfg.MaxWarps)
		}
	}
	st, ok := d.byName[streamName]
	if !ok {
		if d.placement == PlacementSpatial {
			if len(d.streams)+1 > len(d.sms) {
				return nil, fmt.Errorf("sched: spatial placement cannot slice %d SMs across %d streams",
					len(d.sms), len(d.streams)+1)
			}
			// Slices are a function of the stream count, so adding a
			// stream while kernels are resident would silently shift
			// every stream's slice out from under its placed blocks and
			// break the containment invariant. Register all co-running
			// streams before dispatch begins (enqueue, then run); once
			// the device drains, new streams are fine again.
			if d.anyActive() {
				return nil, fmt.Errorf("sched: cannot create stream %q under spatial placement while kernels are resident (SM slices would shift)", streamName)
			}
		}
		st = &stream{name: streamName}
		d.streams = append(d.streams, st)
		d.byName[streamName] = st
	}
	ks := &KernelState{ID: len(d.kernels), Stream: streamName, Kernel: k}
	d.kernels = append(d.kernels, ks)
	st.queue = append(st.queue, ks)
	return ks, nil
}

// anyActive reports whether any kernel is mid-flight (dispatching or
// holding resident blocks).
func (d *Dispatcher) anyActive() bool {
	for _, ks := range d.kernels {
		if ks.Active() {
			return true
		}
	}
	return false
}

// Dispatch fills free block slots from every stream's head kernel,
// breadth-first: one block per eligible stream per pass, until no stream
// can place another block. Called by the GPU at launch and at the end of
// each cycle in which a block retired or a kernel was enqueued; it is
// idempotent when nothing can be placed. It returns the SMs it placed a
// block on, bit i for SM i. An SM settles through `through` before a
// block lands on it: now at the end of cycle now, now-1 before it.
func (d *Dispatcher) Dispatch(now, through sim.Cycle) (placed uint64) {
	if len(d.streams) <= 1 || !d.anyActive() {
		// Restart the scan cursors: always on an empty device (a fresh
		// fill starts at SM 0), and at every call in single-stream legacy
		// mode, where each dispatch call scans from SM 0 exactly like the
		// classic dispatcher (see the type comment). Within the call the
		// cursor still advances past each placed block, which is what
		// makes the fill breadth-first.
		d.cursor = 0
		for _, st := range d.streams {
			st.cursor = 0
		}
	}
	for {
		progress := false
		for si, st := range d.streams {
			ks := st.head()
			if ks == nil {
				continue
			}
			if !ks.active {
				ks.active = true
				ks.stats.LaunchedAt = now
				d.launched++
			}
			if ks.nextBlock >= ks.Kernel.GridDim {
				continue
			}
			if i := d.placeOne(through, si, st, ks); i >= 0 {
				placed |= 1 << uint(i)
				progress = true
			}
		}
		if !progress {
			return placed
		}
	}
}

// placeOne places the next block of ks on the first SM with capacity,
// scanning the stream's candidate SMs from the rotating cursor (or from
// 0 in legacy single-stream mode; see the type comment), and returns
// the SM's index, or -1 when no candidate has room.
func (d *Dispatcher) placeOne(through sim.Cycle, si int, st *stream, ks *KernelState) int {
	lo, width := 0, len(d.sms)
	cursor := &d.cursor
	if d.placement == PlacementSpatial {
		lo, width = d.slice(si)
		cursor = &st.cursor
	}
	if width <= 0 {
		return -1
	}
	for j := 0; j < width; j++ {
		rel := (*cursor + j) % width
		s := d.sms[lo+rel]
		if !s.CanLaunch(ks.Kernel) {
			continue
		}
		s.Settle(through)
		s.LaunchBlock(ks.Kernel, ks.nextBlock, ks.ID)
		ks.placements = append(ks.placements, lo+rel)
		ks.nextBlock++
		ks.stats.BlocksDispatched++
		d.blocks++
		*cursor = (rel + 1) % width
		return lo + rel
	}
	return -1
}

// slice returns stream si's SM range [lo, lo+width) under spatial
// placement: contiguous, near-equal slices by stream creation order.
func (d *Dispatcher) slice(si int) (lo, width int) {
	n, s := len(d.sms), len(d.streams)
	lo = si * n / s
	hi := (si + 1) * n / s
	return lo, hi - lo
}

// NoteBlockRetired records that a block of kernel kid retired at cycle
// now (wired to the SMs' retire hook). When the last block retires the
// kernel completes and its stream advances; the successor kernel begins
// dispatching at the next Dispatch call — the same cycle, since the GPU
// dispatches at the end of a cycle in which a block retired.
func (d *Dispatcher) NoteBlockRetired(now sim.Cycle, kid int) {
	if kid < 0 || kid >= len(d.kernels) {
		panic(fmt.Sprintf("sched: retire for unknown kernel %d", kid))
	}
	ks := d.kernels[kid]
	ks.stats.BlocksRetired++
	if ks.stats.BlocksRetired > ks.Kernel.GridDim {
		panic(fmt.Sprintf("sched: kernel %d retired more blocks than its grid", kid))
	}
	if ks.stats.BlocksRetired == ks.Kernel.GridDim && ks.nextBlock == ks.Kernel.GridDim {
		ks.completed = true
		ks.stats.CompletedAt = now
		st := d.byName[ks.Stream]
		if st.head() != ks {
			panic(fmt.Sprintf("sched: completed kernel %d is not its stream's head", kid))
		}
		st.queue = st.queue[1:]
	}
}

// Done reports whether every enqueued kernel has fully retired.
func (d *Dispatcher) Done() bool {
	for _, st := range d.streams {
		if len(st.queue) > 0 {
			return false
		}
	}
	return true
}

// Kernels returns every enqueued kernel's state in launch order.
func (d *Dispatcher) Kernels() []*KernelState { return d.kernels }

// KernelsLaunched counts kernels that began dispatching.
func (d *Dispatcher) KernelsLaunched() int { return d.launched }

// BlocksDispatched counts blocks placed on SMs across all kernels.
func (d *Dispatcher) BlocksDispatched() int { return d.blocks }

// DebugState renders the dispatcher's semantic state — per-stream queues
// and cursors, per-kernel dispatch progress — for the engine-equivalence
// audit.
func (d *Dispatcher) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cur=%d", d.cursor)
	for _, st := range d.streams {
		fmt.Fprintf(&b, " %s{q=%d cur=%d}", st.name, len(st.queue), st.cursor)
	}
	for _, ks := range d.kernels {
		fmt.Fprintf(&b, " k%d{next=%d ret=%d act=%v done=%v}",
			ks.ID, ks.nextBlock, ks.stats.BlocksRetired, ks.active, ks.completed)
	}
	return b.String()
}
