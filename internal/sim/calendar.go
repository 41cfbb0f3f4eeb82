package sim

// Calendar delivers items at arbitrary future cycles, unlike Queue whose
// latency is constant. It is backed by a stable binary min-heap
// keyed on (readyAt, insertion sequence): Schedule is O(log n) — the
// insertion sort it replaces was O(n) per call — and ties still emerge
// in insertion order. Calendar is the event-driven kernel's hot path
// (every SM retire event flows through one), so Ready reuses an internal
// buffer instead of allocating per call.
type Calendar[T any] struct {
	name string
	heap []calEntry[T]
	seq  uint64
	// ready is the reusable delivery buffer; its contents are valid
	// until the next Ready call.
	ready []T
}

type calEntry[T any] struct {
	item    T
	readyAt Cycle
	seq     uint64
}

// NewCalendar returns an empty calendar.
func NewCalendar[T any](name string) *Calendar[T] {
	return &Calendar[T]{name: name}
}

// Name returns the calendar's diagnostic name.
func (cl *Calendar[T]) Name() string { return cl.name }

// Schedule inserts an item that becomes ready at cycle at.
func (cl *Calendar[T]) Schedule(at Cycle, item T) {
	cl.seq++
	cl.heap = append(cl.heap, calEntry[T]{item: item, readyAt: at, seq: cl.seq})
	cl.up(len(cl.heap) - 1)
}

// Ready removes and returns all items ready by cycle c, ordered by
// readiness then insertion. The returned slice aliases an internal
// buffer: it is valid until the next Ready call and must not be
// retained across calls.
func (cl *Calendar[T]) Ready(c Cycle) []T {
	if len(cl.heap) == 0 || cl.heap[0].readyAt > c {
		return nil
	}
	cl.ready = cl.ready[:0]
	for len(cl.heap) > 0 && cl.heap[0].readyAt <= c {
		cl.ready = append(cl.ready, cl.heap[0].item)
		cl.pop()
	}
	return cl.ready
}

// Peek returns the earliest scheduled item and its ready cycle without
// removing it. Ties at the same cycle surface in insertion order, the
// property the engine-determinism gates rely on (see doc.go).
func (cl *Calendar[T]) Peek() (item T, at Cycle, ok bool) {
	if len(cl.heap) == 0 {
		var zero T
		return zero, 0, false
	}
	return cl.heap[0].item, cl.heap[0].readyAt, true
}

// Pop removes and returns the earliest scheduled item regardless of the
// current cycle (the wake scheduler's stale-entry drain; Ready remains
// the cycle-gated bulk path).
func (cl *Calendar[T]) Pop() (item T, at Cycle, ok bool) {
	if len(cl.heap) == 0 {
		var zero T
		return zero, 0, false
	}
	it, at := cl.heap[0].item, cl.heap[0].readyAt
	cl.pop()
	return it, at, true
}

// NextReady returns the cycle at which the earliest scheduled item
// becomes ready, or Never when the calendar is empty (the event-driven
// kernel's horizon hook).
func (cl *Calendar[T]) NextReady() Cycle {
	if len(cl.heap) == 0 {
		return Never
	}
	return cl.heap[0].readyAt
}

// Len returns the number of scheduled items.
func (cl *Calendar[T]) Len() int { return len(cl.heap) }

func (cl *Calendar[T]) less(i, j int) bool {
	a, b := &cl.heap[i], &cl.heap[j]
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.seq < b.seq
}

func (cl *Calendar[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !cl.less(i, parent) {
			return
		}
		cl.heap[i], cl.heap[parent] = cl.heap[parent], cl.heap[i]
		i = parent
	}
}

func (cl *Calendar[T]) pop() {
	last := len(cl.heap) - 1
	cl.heap[0] = cl.heap[last]
	cl.heap[last] = calEntry[T]{} // release the item for GC
	cl.heap = cl.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(cl.heap) && cl.less(l, smallest) {
			smallest = l
		}
		if r < len(cl.heap) && cl.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		cl.heap[i], cl.heap[smallest] = cl.heap[smallest], cl.heap[i]
		i = smallest
	}
}
