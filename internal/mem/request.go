// Package mem defines the memory request model shared by every component
// of the simulator: typed requests, the per-request stage-timestamp log
// that implements the paper's latency instrumentation, the flat functional
// global memory, and address coalescing helpers.
package mem

import (
	"fmt"

	"gpulat/internal/sim"
)

// Space identifies the memory space an access targets. Global and Local
// both traverse the global memory pipeline (L1/L2/DRAM); which caches they
// may use depends on the architecture generation (e.g. on Kepler, local
// accesses may hit L1 but global accesses bypass it). Shared is on-chip
// scratchpad and never leaves the SM.
type Space uint8

const (
	SpaceGlobal Space = iota
	SpaceLocal
	SpaceShared
)

// String returns the CUDA-style name of the space.
func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpaceShared:
		return "shared"
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// Kind distinguishes loads from stores.
type Kind uint8

const (
	KindLoad Kind = iota
	KindStore
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == KindLoad {
		return "load"
	}
	return "store"
}

// Request is one memory transaction traveling through the memory pipeline.
// A warp memory instruction coalesces into one or more Requests. Requests
// generated by instructions are "tracked": they carry a StageLog and are
// reported to the latency observer on completion. Requests generated
// internally (dirty-line writebacks, prefetches) are untracked, matching
// the paper's methodology of tracking "all memory requests generated by
// instructions (but not those generated by, for example, cache line
// evictions)".
type Request struct {
	// ID is unique per simulation and is assigned by the GPU front end.
	ID uint64
	// Addr is the first byte address; Size is the transaction size in
	// bytes (a cache sector or line).
	Addr uint64
	Size uint32

	Kind  Kind
	Space Space

	// SM and Warp identify the issuing core and warp for tracked
	// requests; they are -1 for internal requests.
	SM   int
	Warp int
	// Inst is the per-warp dynamic instruction sequence number that
	// generated this request (for exposure attribution).
	Inst uint64
	// Kernel is the device-wide launch sequence number of the kernel the
	// issuing block belongs to (per-kernel attribution when several
	// kernels are co-resident; 0 for single-kernel runs).
	Kernel int

	// Partition is filled in by the address decoder when the request is
	// routed through the interconnect.
	Partition int

	// Tracked requests carry a stage log; untracked requests have a nil
	// Log.
	Log *StageLog

	// MergedInto is non-nil when this request was merged into another
	// in-flight request at an MSHR and did not itself traverse the
	// pipeline below the merge point.
	MergedInto *Request

	// pooled marks a request currently sitting in a RequestPool free
	// list; it catches double-release bugs at the release point instead
	// of as state corruption cycles later.
	pooled bool
}

// String renders a compact description for diagnostics.
func (r *Request) String() string {
	return fmt.Sprintf("req#%d %s %s addr=%#x size=%d sm=%d warp=%d",
		r.ID, r.Space, r.Kind, r.Addr, r.Size, r.SM, r.Warp)
}

// LineAddr returns the address truncated to a lineSize boundary.
func LineAddr(addr uint64, lineSize uint32) uint64 {
	return addr &^ uint64(lineSize-1)
}

// Observer receives completion notifications for tracked requests.
// internal/core implements Observer to build the paper's breakdowns.
type Observer interface {
	// RequestDone is called exactly once per tracked request when its
	// data has been written back to the SM (loads) or it has been
	// committed (stores). c is the completion cycle.
	//
	// The request and its Log are valid only for the duration of the
	// call: the simulator recycles request objects through a
	// RequestPool immediately afterwards, so an observer that needs
	// the data later must copy the fields (or the *Log) by value, never
	// retain the pointers.
	RequestDone(c sim.Cycle, r *Request)
}

// NopObserver discards all notifications.
type NopObserver struct{}

// RequestDone implements Observer.
func (NopObserver) RequestDone(sim.Cycle, *Request) {}
