package sim

import (
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

func TestQueueStats(t *testing.T) {
	q := NewQueue[int]("stats", 2, 0)
	q.Push(0, 1)
	q.Push(0, 2)
	q.NoteStall()
	q.Observe()
	q.Pop(0)
	q.Observe()
	st := q.Stats()
	if st.Pushes != 2 || st.Pops != 1 || st.Stalls != 1 {
		t.Fatalf("bad stats: %+v", st)
	}
	if st.MeanOccupancy != 1.5 {
		t.Fatalf("mean occupancy = %v, want 1.5", st.MeanOccupancy)
	}
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

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}
