// Package sim provides the low-level building blocks of the cycle-level
// GPU timing simulator — the simulation clock, bounded latency queues,
// stable calendars — and the simulation-kernel contract that lets the
// event-driven engine produce byte-identical results to the cycle-driven
// reference loop. This file is that contract's specification; the
// implementation lives in internal/gpu.
//
// # Tick semantics
//
// Every timed component implements Ticker. Tick(c) advances the
// component to cycle c and is called with strictly increasing values of
// c — but, under the event engine, NOT for every c: a component that
// provably cannot act at a cycle is simply not ticked. Components must
// therefore never count cycles by counting Tick calls; anything that
// accrues per-cycle (and only such state) is reconstructed by SkipIdle
// replay (below).
//
// # The NextEvent horizon
//
// A Component extends Ticker with NextEvent(now), which returns the
// earliest cycle t >= now at which the component could change semantic
// state assuming no new external input arrives before t, or Never when
// it is fully drained. The contract is one-sided:
//
//   - Reporting a horizon EARLIER than the true next event only costs
//     speed: the engine wakes the component, its tick is a no-op, and a
//     fresh horizon is registered.
//   - Reporting a horizon LATER than the true next event is a
//     correctness bug: the engine would sleep through real work and the
//     two engines would diverge. TestNextEventHorizonNeverLate in
//     internal/gpu enforces that this never happens.
//
// NextEvent must be side-effect free and must depend only on the
// component's own state: a buffered handoff whose progress depends on a
// neighbor (a miss awaiting network injection, a reply awaiting queue
// space) pins the horizon at now rather than speculating about the
// neighbor.
//
// # Wake registration and re-arming
//
// The Scheduler inverts the polling direction: instead of the engine
// asking every component for a horizon every cycle, each component has
// a wake cycle registered (armed) on the scheduler, and the engine
// steps only cycles at which some wake is due (NextWake). Registration
// follows two rules:
//
//  1. Re-arm after every mutation. Whenever a component's state changes
//     — it was ticked, an item was popped from or pushed into one of
//     its queues, a block was launched onto it — its old registration
//     is invalid and the owner must re-register NextEvent(c+1) via
//     Rearm before the clock advances. A component left un-re-armed
//     after a mutation is a lost wake-up, the classic event-driven
//     simulation bug; the engine's debug audit (SetWakeAudit in
//     internal/gpu) detects it by re-polling NextEvent on components
//     that were NOT mutated and asserting the armed wake is not late.
//  2. Between mutations, the registration stays valid by itself:
//     NextEvent depends only on the component's own (frozen) state, so
//     no re-arm is needed for components nothing touched.
//
// Mid-cycle wake sources use WakeAt, which coalesces duplicate
// registrations by keeping the earliest — waking early is safe (rule
// one-sidedness above), so callers need not know what is already armed.
// Never is the disarmed state: a drained component consumes no
// scheduler capacity and zero per-cycle work until external input
// arrives, at which point the input's deliverer wakes it explicitly.
//
// # Determinism and same-cycle ordering
//
// Both engines must produce byte-identical results, which requires a
// deterministic order among components acting on the same cycle. That
// order is written in exactly one place, GPU.step in internal/gpu, and
// both engines run it: partitions, reply network (partition return
// queues → network → cores), request network (core miss queues →
// network → partitions), cores with their deferred-effect flush, then
// the dispatcher. The tick engine runs the body ungated — every
// component ticks, no wake state is consulted — and the event engine
// runs the same body with each component's Tick gated on its wake, so
// what the tick oracle certifies is exactly the gating: horizons, wake
// registration, idle replay and re-arming. The Scheduler imposes no
// order of its own. It is a flat slice of armed cycles, one per
// subscriber, and answers only "what is the earliest armed cycle"
// (NextWake) and "is this subscriber due" (Due); there is no heap to pop
// and so no tie-breaking rule to get wrong. (Calendar, the stable
// min-heap in this package, orders timed events inside one component —
// an SM's writeback deliveries — not wakes across components;
// TestCalendarSameCycleStableOrder pins its tie order.)
//
// # SkipIdle replay
//
// Skipped cycles must leave no statistical trace distinguishable from
// stepped cycles. Counters that advance merely because time passes — a
// busy core's cycle count, its empty-issue-slot count — are replayed in
// bulk when a sleeping component is next processed: the engine tracks
// the last cycle each core was processed and calls SkipIdle(delta)
// before delivering new input or ticking, while the component's state
// is still exactly what it was when it went to sleep (which is what
// makes SkipIdle's busy/resident checks valid for the whole span). The
// one deliberate exception is the crossbar's EjectBlocked counter,
// which counts full-queue observations rather than events and is
// excluded from engine-equivalence comparisons.
//
// # One goroutine per device
//
// A device is stepped by one goroutine: the paper's experiments are
// grids of independent simulations, and the runner spreads those over
// the cores. Within a cycle every SM ticks before any SM's global stores
// and atomics commit (SM.FlushCycle, in SM index order); that commit
// point is part of the timing model, not a concurrency device.
//
// Pool (pool.go) is deprecated and no simulator code calls it. It stays
// only because bench/ledger_sim.go times it (sim.pool.run_ns_op); the
// benchmark PR that retires that line deletes pool.go and pool_test.go.
package sim
