package sim

// Queue is a bounded FIFO with an optional minimum traversal latency.
// An item pushed at cycle c with latency L becomes visible to Peek/Pop at
// cycle c+L. Queues model every buffering point in the memory pipeline
// (miss queues, interconnect buffers, ROP queues, DRAM queues, ...): the
// latency parameter models wire/pipeline delay while the bound models
// finite buffering and therefore backpressure, the paper's "loaded queue"
// latency contributor.
//
// The zero Queue is not usable; construct with NewQueue.
type Queue[T any] struct {
	name    string
	items   []queueEntry[T]
	cap     int
	latency Cycle

	// Stats.
	pushes     uint64
	pops       uint64
	stallCount uint64 // CanPush()==false observations
	occupSum   uint64 // sum of Len() over observed cycles (via Observe)
	observed   uint64
}

type queueEntry[T any] struct {
	item    T
	readyAt Cycle
}

// NewQueue returns a queue with the given capacity (entries) and minimum
// traversal latency (cycles). capacity must be >= 1.
func NewQueue[T any](name string, capacity int, latency Cycle) *Queue[T] {
	if capacity < 1 {
		panic("sim: queue capacity must be >= 1: " + name)
	}
	return &Queue[T]{
		name:    name,
		items:   make([]queueEntry[T], 0, capacity),
		cap:     capacity,
		latency: latency,
	}
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// CanPush reports whether the queue has room for another entry.
func (q *Queue[T]) CanPush() bool { return len(q.items) < q.cap }

// Push appends an item at cycle c. The item becomes visible at c+latency.
// Push panics if the queue is full; callers must check CanPush first —
// modelling backpressure is the caller's responsibility.
func (q *Queue[T]) Push(c Cycle, item T) {
	if !q.CanPush() {
		panic("sim: push to full queue: " + q.name)
	}
	q.items = append(q.items, queueEntry[T]{item: item, readyAt: c + q.latency})
	q.pushes++
}

// NoteStall records that a producer observed the queue full this cycle.
func (q *Queue[T]) NoteStall() { q.stallCount++ }

// Peek returns the front item if it is visible at cycle c.
func (q *Queue[T]) Peek(c Cycle) (T, bool) {
	var zero T
	if len(q.items) == 0 || q.items[0].readyAt > c {
		return zero, false
	}
	return q.items[0].item, true
}

// Head returns the front item regardless of whether it is visible yet
// (contrast Peek, which respects the traversal latency). Horizon code
// uses it to reason about what the head WILL be when it becomes visible
// without needing to know the current cycle.
func (q *Queue[T]) Head() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0].item, true
}

// Pop removes and returns the front item if it is visible at cycle c.
func (q *Queue[T]) Pop(c Cycle) (T, bool) {
	var zero T
	if len(q.items) == 0 || q.items[0].readyAt > c {
		return zero, false
	}
	it := q.items[0].item
	// Shift; queues are short (tens of entries) so O(n) copy is fine and
	// keeps memory stable versus a ring buffer's pointer bookkeeping.
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	q.pops++
	return it, true
}

// Len returns the number of entries currently buffered (visible or not).
func (q *Queue[T]) Len() int { return len(q.items) }

// NextReady returns the cycle at which the oldest entry becomes visible
// to Peek/Pop, or Never when the queue is empty. Entries are pushed at
// non-decreasing cycles with a constant latency, so the head is always
// the earliest (the event-driven kernel's horizon hook).
func (q *Queue[T]) NextReady() Cycle {
	if len(q.items) == 0 {
		return Never
	}
	return q.items[0].readyAt
}

// Latency returns the queue's minimum traversal latency.
func (q *Queue[T]) Latency() Cycle { return q.latency }

// Observe accumulates occupancy statistics; call once per cycle if
// occupancy tracking is desired.
func (q *Queue[T]) Observe() {
	q.occupSum += uint64(len(q.items))
	q.observed++
}

// Stats returns push/pop/stall counters and mean occupancy.
func (q *Queue[T]) Stats() QueueStats {
	mean := 0.0
	if q.observed > 0 {
		mean = float64(q.occupSum) / float64(q.observed)
	}
	return QueueStats{
		Name:          q.name,
		Pushes:        q.pushes,
		Pops:          q.pops,
		Stalls:        q.stallCount,
		MeanOccupancy: mean,
	}
}

// QueueStats is a snapshot of queue activity counters.
type QueueStats struct {
	Name          string
	Pushes        uint64
	Pops          uint64
	Stalls        uint64
	MeanOccupancy float64
}
