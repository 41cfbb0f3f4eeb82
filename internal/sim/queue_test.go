package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue[int]("t", 8, 0)
	for i := 0; i < 8; i++ {
		if !q.CanPush() {
			t.Fatalf("queue full early at %d", i)
		}
		q.Push(0, i)
	}
	if q.CanPush() {
		t.Fatal("queue should be full")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Pop(0)
		if !ok || v != i {
			t.Fatalf("pop %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueLatencyHidesItems(t *testing.T) {
	q := NewQueue[string]("t", 4, 5)
	q.Push(10, "a")
	for c := Cycle(10); c < 15; c++ {
		if _, ok := q.Peek(c); ok {
			t.Fatalf("item visible at cycle %d before latency elapsed", c)
		}
	}
	v, ok := q.Peek(15)
	if !ok || v != "a" {
		t.Fatalf("item not visible at readiness cycle: %v %v", v, ok)
	}
	if _, ok := q.Pop(14); ok {
		t.Fatal("pop before ready succeeded")
	}
	if _, ok := q.Pop(15); !ok {
		t.Fatal("pop at ready cycle failed")
	}
}

func TestQueuePushFullPanics(t *testing.T) {
	q := NewQueue[int]("t", 1, 0)
	q.Push(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing to full queue")
		}
	}()
	q.Push(0, 2)
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewQueue[int]("t", 0, 0)
}

// Property: for any interleaving of pushes and pops, the queue preserves
// FIFO order and never exceeds capacity.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		q := NewQueue[int]("prop", capacity, 0)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				if q.CanPush() != (len(model) < capacity) {
					return false
				}
				if q.CanPush() {
					q.Push(0, next)
					model = append(model, next)
					next++
				}
			} else {
				v, ok := q.Pop(0)
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refQueue is the shifting queue the ring replaced: a slice whose Pop
// copies every later entry down one slot. Lock-stepping it with a Queue
// proves the ring's head, count and wrap-around keep the same FIFO.
type refQueue[T any] struct {
	items   []queueEntry[T]
	cap     int
	latency Cycle
}

func (q *refQueue[T]) CanPush() bool { return len(q.items) < q.cap }

func (q *refQueue[T]) Push(c Cycle, item T) {
	if !q.CanPush() {
		panic("sim: push to full queue")
	}
	q.items = append(q.items, queueEntry[T]{item: item, readyAt: c + q.latency})
}

func (q *refQueue[T]) Peek(c Cycle) (T, bool) {
	var zero T
	if len(q.items) == 0 || q.items[0].readyAt > c {
		return zero, false
	}
	return q.items[0].item, true
}

func (q *refQueue[T]) Head() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0].item, true
}

func (q *refQueue[T]) Pop(c Cycle) (T, bool) {
	it, ok := q.Peek(c)
	if ok {
		copy(q.items, q.items[1:])
		q.items = q.items[:len(q.items)-1]
	}
	return it, ok
}

func (q *refQueue[T]) NextReady() Cycle {
	if len(q.items) == 0 {
		return Never
	}
	return q.items[0].readyAt
}

// pushPanics reports whether push panicked.
func pushPanics(push func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	push()
	return false
}

// TestQueueMatchesShiftReference drives the ring and the shifting
// reference through the same seeded Push/Peek/Pop/Head/NextReady/Len/
// CanPush stream, capacities 1-70 and latencies 0-5, pushing into full
// queues on purpose, and requires every answer to agree.
func TestQueueMatchesShiftReference(t *testing.T) {
	for capacity := 1; capacity <= 70; capacity++ {
		for lat := Cycle(0); lat <= 5; lat++ {
			rng := rand.New(rand.NewSource(int64(capacity*8) + int64(lat)))
			q := NewQueue[*int]("ring", capacity, lat)
			ref := &refQueue[*int]{cap: capacity, latency: lat}
			var c Cycle
			next, wraps, fulls := 0, 0, 0
			// A push bias that drifts keeps the queue swinging between
			// empty and full, so the head wraps many times.
			for step := 0; step < 40*capacity+200; step++ {
				bias := 20 + 60*((step/(3*capacity+5))%2)
				where := fmt.Sprintf("cap %d lat %d step %d", capacity, lat, step)
				switch {
				case rng.Intn(100) < bias:
					v := next
					next++
					got := pushPanics(func() { q.Push(c, &v) })
					want := pushPanics(func() { ref.Push(c, &v) })
					if got != want {
						t.Fatalf("%s: push panicked=%v, reference %v", where, got, want)
					}
					if got {
						fulls++
					}
				default:
					got, gok := q.Pop(c)
					want, wok := ref.Pop(c)
					if gok != wok || got != want {
						t.Fatalf("%s: Pop(%d) = %v,%v; reference %v,%v", where, c, got, gok, want, wok)
					}
					if gok && q.head == 0 {
						wraps++
					}
				}
				c += Cycle(rng.Intn(2))
				gp, gpok := q.Peek(c)
				wp, wpok := ref.Peek(c)
				gh, ghok := q.Head()
				wh, whok := ref.Head()
				if gp != wp || gpok != wpok || gh != wh || ghok != whok {
					t.Fatalf("%s: Peek %v,%v Head %v,%v; reference Peek %v,%v Head %v,%v",
						where, gp, gpok, gh, ghok, wp, wpok, wh, whok)
				}
				if q.Len() != len(ref.items) || q.CanPush() != ref.CanPush() || q.NextReady() != ref.NextReady() {
					t.Fatalf("%s: Len %d CanPush %v NextReady %d; reference %d %v %d", where,
						q.Len(), q.CanPush(), q.NextReady(), len(ref.items), ref.CanPush(), ref.NextReady())
				}
			}
			// Popped slots hold no stale pointer.
			for i, e := range q.ring {
				if live := (i-q.head+len(q.ring))%len(q.ring) < q.n; !live && e.item != nil {
					t.Fatalf("cap %d lat %d: free slot %d still holds an item", capacity, lat, i)
				}
			}
			if wraps < 5 || fulls == 0 {
				t.Fatalf("cap %d lat %d: the head wrapped %d times and %d pushes met a full queue; the stream does not exercise the ring",
					capacity, lat, wraps, fulls)
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}
