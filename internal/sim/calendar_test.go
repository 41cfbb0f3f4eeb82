package sim

import (
	"testing"
	"testing/quick"
)

func TestCalendarOrdering(t *testing.T) {
	cl := NewCalendar[int]("t")
	cl.Schedule(30, 3)
	cl.Schedule(10, 1)
	cl.Schedule(20, 2)
	if got := cl.Ready(5); got != nil {
		t.Fatalf("early delivery: %v", got)
	}
	if got := cl.Ready(15); len(got) != 1 || got[0] != 1 {
		t.Fatalf("at 15: %v", got)
	}
	if got := cl.Ready(30); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("at 30: %v", got)
	}
	if cl.Len() != 0 {
		t.Fatal("not drained")
	}
}

func TestCalendarTiesPreserveInsertionOrder(t *testing.T) {
	cl := NewCalendar[string]("t")
	cl.Schedule(5, "a")
	cl.Schedule(5, "b")
	cl.Schedule(5, "c")
	got := cl.Ready(5)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order: %v", got)
	}
}

// Property: items emerge in non-decreasing readiness order regardless of
// insertion order, and nothing is lost.
func TestCalendarSortedDeliveryProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		cl := NewCalendar[int]("p")
		for i, d := range delays {
			cl.Schedule(Cycle(d), i)
		}
		seen := 0
		var lastAt Cycle
		for c := Cycle(0); c <= 256; c++ {
			for range cl.Ready(c) {
				if c < lastAt {
					return false
				}
				lastAt = c
				seen++
			}
		}
		return seen == len(delays) && cl.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarInterleavedScheduleAndDrain(t *testing.T) {
	cl := NewCalendar[int]("t")
	cl.Schedule(10, 1)
	if got := cl.Ready(10); len(got) != 1 {
		t.Fatalf("first drain: %v", got)
	}
	// Scheduling in the past delivers on next Ready.
	cl.Schedule(3, 2)
	if got := cl.Ready(10); len(got) != 1 || got[0] != 2 {
		t.Fatalf("past schedule: %v", got)
	}
}

func TestCalendarNextReady(t *testing.T) {
	cl := NewCalendar[int]("t")
	if cl.NextReady() != Never {
		t.Fatal("empty calendar must report Never")
	}
	cl.Schedule(20, 2)
	cl.Schedule(10, 1)
	if got := cl.NextReady(); got != 10 {
		t.Fatalf("NextReady = %d, want 10", got)
	}
	cl.Ready(10)
	if got := cl.NextReady(); got != 20 {
		t.Fatalf("NextReady after drain = %d, want 20", got)
	}
	cl.Ready(20)
	if cl.NextReady() != Never {
		t.Fatal("drained calendar must report Never")
	}
}

// Property: the heap-backed calendar delivers exactly what a naive
// stable-sorted reference would, including tie order, under arbitrary
// interleavings of Schedule and Ready.
func TestCalendarMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		cl := NewCalendar[int]("p")
		type refEntry struct {
			at   Cycle
			item int
		}
		var ref []refEntry
		clock := Cycle(0)
		for i, op := range ops {
			if op%3 == 0 {
				// Drain step: advance the clock and compare deliveries.
				clock += Cycle(op % 64)
				got := cl.Ready(clock)
				var want []int
				rest := ref[:0]
				for _, e := range ref {
					if e.at <= clock {
						want = append(want, e.item)
					} else {
						rest = append(rest, e)
					}
				}
				ref = rest
				if len(got) != len(want) {
					return false
				}
				for j := range got {
					if got[j] != want[j] {
						return false
					}
				}
				continue
			}
			at := clock + Cycle(op%128)
			cl.Schedule(at, i)
			// Insert into the reference keeping (at, insertion) order.
			pos := len(ref)
			for pos > 0 && ref[pos-1].at > at {
				pos--
			}
			ref = append(ref, refEntry{})
			copy(ref[pos+1:], ref[pos:])
			ref[pos] = refEntry{at: at, item: i}
		}
		return cl.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueNextReady(t *testing.T) {
	q := NewQueue[int]("q", 4, 3)
	if q.NextReady() != Never {
		t.Fatal("empty queue must report Never")
	}
	q.Push(10, 1)
	if got := q.NextReady(); got != 13 {
		t.Fatalf("queue NextReady = %d, want 13", got)
	}
}

func BenchmarkCalendarScheduleReady(b *testing.B) {
	cl := NewCalendar[int]("bench")
	for i := 0; b.Loop(); i++ {
		base := Cycle(i * 8)
		for j := 0; j < 64; j++ {
			cl.Schedule(base+Cycle((j*37)%512), j)
		}
		for c := base; cl.Len() > 0; c += 16 {
			cl.Ready(c)
		}
	}
}
