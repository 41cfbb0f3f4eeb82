package sim

// Queue is a bounded FIFO with an optional minimum traversal latency.
// An item pushed at cycle c with latency L becomes visible to Peek/Pop at
// cycle c+L. Queues model every buffering point in the memory pipeline
// (miss queues, interconnect buffers, ROP queues, DRAM queues, ...): the
// latency parameter models wire/pipeline delay while the bound models
// finite buffering and therefore backpressure, the paper's "loaded queue"
// latency contributor.
//
// The entries live in a fixed ring of capacity slots: Pop advances the
// head instead of shifting, so every operation is O(1) and the queue
// never allocates after NewQueue. The head's readiness is kept beside
// the ring, so the per-cycle poll of a waiting or empty queue (Peek,
// NextReady) is one compare.
//
// The zero Queue is not usable; construct with NewQueue.
type Queue[T any] struct {
	name    string
	ring    []queueEntry[T]
	head    int   // slot of the oldest entry
	n       int   // entries buffered
	ready   Cycle // the oldest entry's readyAt; Never (which no cycle reaches) when empty
	latency Cycle
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
	return &Queue[T]{name: name, ring: make([]queueEntry[T], capacity), ready: Never, latency: latency}
}

// CanPush reports whether the queue has room for another entry.
func (q *Queue[T]) CanPush() bool { return q.n < len(q.ring) }

// Push appends an item at cycle c. The item becomes visible at c+latency.
// Push panics if the queue is full; callers must check CanPush first —
// modelling backpressure is the caller's responsibility.
func (q *Queue[T]) Push(c Cycle, item T) {
	if !q.CanPush() {
		panic("sim: push to full queue: " + q.name)
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = queueEntry[T]{item: item, readyAt: c + q.latency}
	if q.n == 0 {
		q.ready = c + q.latency
	}
	q.n++
}

// Peek returns the front item if it is visible at cycle c.
func (q *Queue[T]) Peek(c Cycle) (T, bool) {
	if q.ready > c {
		var zero T
		return zero, false
	}
	return q.ring[q.head].item, true
}

// Head returns the front item regardless of whether it is visible yet
// (contrast Peek, which respects the traversal latency). Horizon code
// uses it to reason about what the head WILL be when it becomes visible
// without needing to know the current cycle.
func (q *Queue[T]) Head() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.ring[q.head].item, true
}

// Pop removes and returns the front item if it is visible at cycle c.
// The vacated slot is zeroed so the ring holds no stale pointer.
func (q *Queue[T]) Pop(c Cycle) (it T, ok bool) {
	if q.ready > c {
		return it, false
	}
	e := &q.ring[q.head]
	it, *e = e.item, queueEntry[T]{}
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	if q.n--; q.n > 0 {
		q.ready = q.ring[q.head].readyAt
	} else {
		q.ready = Never
	}
	return it, true
}

// Len returns the number of entries currently buffered (visible or not).
func (q *Queue[T]) Len() int { return q.n }

// NextReady returns the cycle at which the oldest entry becomes visible
// to Peek/Pop, or Never when the queue is empty. Entries are pushed at
// non-decreasing cycles with a constant latency, so the head is always
// the earliest (the event-driven kernel's horizon hook).
func (q *Queue[T]) NextReady() Cycle { return q.ready }
