package sim

// Scheduler is the subscriber side of the event-driven simulation
// kernel: components register future wake-ups instead of being polled
// for horizons. The engine asks NextWake for the earliest registered
// cycle, jumps the clock there, and ticks exactly the components whose
// wake is due (Fire) — a quiescent component costs nothing per cycle.
//
// Subscribers are dense integer IDs rather than interface values: the
// engine owns a fixed component order (the same order the cycle-driven
// loop uses), and indexing an armed-cycle slice keeps WakeAt/Fire off
// any interface-dispatch or map path — both sit on the engine's hot
// loop. IDs are allocated by Register and never recycled.
//
// The armed slice is the whole data structure. A GPU has a few dozen
// subscribers (SMs, partitions, networks), so NextWake is a branch-
// predictable linear min-scan over a cache-resident slice — measurably
// cheaper than maintaining a priority heap whose lazy-deletion churn
// (one push per re-arm, stale entries popped on the way to the
// minimum) dominated the engine's re-arm hot path in profiles. The
// scan also needs no tie-breaking rule: NextWake returns only the
// minimum cycle, and the engine processes the components due at that
// cycle in its own fixed phase order, which is what makes same-cycle
// wake handling deterministic.
type Scheduler struct {
	armed []Cycle  // per ID: earliest registered wake, Never when disarmed
	names []string // per ID: diagnostic name
	arms  []uint64 // per ID: accepted wake registrations
	fires []uint64 // per ID: due wake-ups taken by Fire
}

// NewScheduler returns an empty wake scheduler; name labels it for
// diagnostics.
func NewScheduler(name string) *Scheduler {
	return &Scheduler{}
}

// Register allocates a subscriber ID. New subscribers start disarmed.
func (sc *Scheduler) Register(name string) int {
	sc.armed = append(sc.armed, Never)
	sc.names = append(sc.names, name)
	sc.arms = append(sc.arms, 0)
	sc.fires = append(sc.fires, 0)
	return len(sc.armed) - 1
}

// Size returns the number of registered subscribers.
func (sc *Scheduler) Size() int { return len(sc.armed) }

// Name returns the subscriber's diagnostic name.
func (sc *Scheduler) Name(id int) string { return sc.names[id] }

// Armed returns the subscriber's registered wake cycle (Never when
// disarmed).
func (sc *Scheduler) Armed(id int) Cycle { return sc.armed[id] }

// Arms returns the number of wake registrations the subscriber has had
// accepted (coalesced duplicates are not counted).
func (sc *Scheduler) Arms(id int) uint64 { return sc.arms[id] }

// Fires returns the number of due wake-ups Fire has taken for the
// subscriber.
func (sc *Scheduler) Fires(id int) uint64 { return sc.fires[id] }

// Fire reports which of the n <= 64 subscribers first..first+n-1 are
// due — armed at or before now — as bit i for first+i, and counts a
// fired wake-up for each. The engine registers each component kind
// under contiguous IDs and fires each kind once per stepped cycle, so
// one pass over the armed slice gives a kind's due set.
func (sc *Scheduler) Fire(first, n int, now Cycle) uint64 {
	var m uint64
	for i, at := range sc.armed[first : first+n] {
		if at <= now {
			m |= 1 << uint(i)
			sc.fires[first+i]++
		}
	}
	return m
}

// WakeAt registers a wake-up at cycle at, coalescing with any existing
// registration: the earliest wins, a duplicate or later registration is
// a no-op. Waking early is always safe under the component contract
// (see doc.go), so mid-cycle wake sources — a reply delivered to a
// sleeping core, a block launch — call WakeAt without knowing what the
// component already has armed.
func (sc *Scheduler) WakeAt(id int, at Cycle) {
	if at >= sc.armed[id] {
		return
	}
	sc.armed[id] = at
	sc.arms[id]++
}

// Rearm replaces the subscriber's registration with at (Never disarms).
// This is the end-of-cycle path: after a component was ticked or
// otherwise mutated, its old wake is meaningless and the new horizon —
// earlier or later — must stand on its own.
func (sc *Scheduler) Rearm(id int, at Cycle) {
	if at == sc.armed[id] {
		return
	}
	sc.armed[id] = at
	if at != Never {
		sc.arms[id]++
	}
}

// NextWake returns the earliest registered wake cycle, or Never when
// every subscriber is disarmed.
func (sc *Scheduler) NextWake() Cycle {
	next := Never
	for _, at := range sc.armed {
		if at < next {
			next = at
		}
	}
	return next
}
