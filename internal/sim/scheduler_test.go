package sim

import (
	"math/rand"
	"testing"
)

func TestSchedulerCoalesceKeepsEarliest(t *testing.T) {
	sc := NewScheduler("test")
	a := sc.Register("a")
	if sc.Armed(a) != Never || sc.Fire(a, 1, 1000) != 0 {
		t.Fatal("fresh subscriber must start disarmed")
	}
	sc.WakeAt(a, 10)
	sc.WakeAt(a, 20) // later: coalesced away
	if got := sc.Armed(a); got != 10 {
		t.Fatalf("armed = %d, want 10 (later registration must coalesce)", got)
	}
	sc.WakeAt(a, 5) // earlier: wins
	if got := sc.Armed(a); got != 5 {
		t.Fatalf("armed = %d, want 5 (earlier registration must win)", got)
	}
	if got := sc.NextWake(); got != 5 {
		t.Fatalf("NextWake = %d, want 5", got)
	}
	if sc.Arms(a) != 2 {
		t.Fatalf("arms = %d, want 2 (the coalesced duplicate is not counted)", sc.Arms(a))
	}
}

func TestSchedulerFire(t *testing.T) {
	sc := NewScheduler("test")
	for _, n := range []string{"x", "a", "b", "c"} {
		sc.Register(n)
	}
	sc.WakeAt(1, 10)
	sc.WakeAt(2, 11)
	sc.WakeAt(3, 9)
	if got := sc.Fire(0, 4, 8); got != 0 {
		t.Fatalf("Fire(0, 4, 8) = %#b, want 0 (x disarmed, the rest later)", got)
	}
	if got := sc.Fire(1, 3, 10); got != 0b101 {
		t.Fatalf("Fire(1, 3, 10) = %#b, want 0b101 (a and c armed at or before 10)", got)
	}
	for id, want := range []uint64{0, 1, 0, 1} {
		if got := sc.Fires(id); got != want {
			t.Errorf("Fires(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestSchedulerRearmReplaces(t *testing.T) {
	sc := NewScheduler("test")
	a := sc.Register("a")
	b := sc.Register("b")
	sc.WakeAt(a, 5)
	sc.WakeAt(b, 8)
	sc.Rearm(a, 30) // replacement may move LATER, unlike WakeAt
	if got := sc.Armed(a); got != 30 {
		t.Fatalf("armed = %d, want 30", got)
	}
	if got := sc.NextWake(); got != 8 {
		t.Fatalf("NextWake = %d, want 8 (a's stale entry at 5 must be skipped)", got)
	}
	sc.Rearm(b, Never)
	if got := sc.NextWake(); got != 30 {
		t.Fatalf("NextWake = %d, want 30 after disarming b", got)
	}
	sc.Rearm(a, Never)
	if got := sc.NextWake(); got != Never {
		t.Fatalf("NextWake = %d, want Never with everything disarmed", got)
	}
}

// TestCalendarSameCycleStableOrder is the same-cycle determinism
// regression test: wakes registered at one cycle, interleaved with
// registrations at other cycles, must pop in insertion order — stable
// heap order, never arbitrary sift order. Byte-identity across engines
// and -j worker counts depends on every same-cycle tie in the simulator
// resolving this way.
func TestCalendarSameCycleStableOrder(t *testing.T) {
	cal := NewCalendar[int]()
	// Interleave: items 0..9 at cycle 50, with decoys at earlier and
	// later cycles between every insertion to force heap reshuffles.
	for i := 0; i < 10; i++ {
		cal.Schedule(50, i)
		cal.Schedule(40, 100+i)
		cal.Schedule(60, 200+i)
	}
	got := append([]int(nil), cal.Ready(55)...)
	want := []int{100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Ready(55) returned %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order diverged at %d: got %v, want %v (ties must emerge in insertion order)", i, got, want)
		}
	}
	// Pop drains the rest in the same stable order.
	for i := 0; i < 10; i++ {
		item, at, ok := cal.Pop()
		if !ok || at != 60 || item != 200+i {
			t.Fatalf("Pop %d = (%d,%d,%v), want (%d,60,true)", i, item, at, ok, 200+i)
		}
	}
}

// FuzzCalendar drives random schedule/peek/pop/ready sequences against a
// reference model (a stable insertion-ordered list) and requires the
// heap to agree on every observation.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{1, 9, 2, 0, 4, 7, 3})
	f.Add([]byte{0, 0, 0, 200, 1, 1, 255, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cal := NewCalendar[int]()
		type ent struct {
			at   Cycle
			item int
		}
		var model []ent // kept sorted by (at, insertion) via stable insert
		seq := 0
		for i := 0; i+1 < len(ops); i += 2 {
			switch ops[i] % 4 {
			case 0, 1: // schedule (weighted: growth keeps the heap busy)
				at := Cycle(ops[i+1])
				cal.Schedule(at, seq)
				pos := len(model)
				for pos > 0 && model[pos-1].at > at {
					pos--
				}
				model = append(model, ent{})
				copy(model[pos+1:], model[pos:])
				model[pos] = ent{at: at, item: seq}
				seq++
			case 2: // pop head
				item, at, ok := cal.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("Pop ok=%v, model has %d entries", ok, len(model))
				}
				if ok {
					if item != model[0].item || at != model[0].at {
						t.Fatalf("Pop = (%d,%d), model head (%d,%d)", item, at, model[0].item, model[0].at)
					}
					model = model[1:]
				}
			case 3: // ready drain at a cycle
				c := Cycle(ops[i+1])
				got := cal.Ready(c)
				n := 0
				for n < len(model) && model[n].at <= c {
					n++
				}
				if len(got) != n {
					t.Fatalf("Ready(%d) returned %d items, model has %d due", c, len(got), n)
				}
				for j := 0; j < n; j++ {
					if got[j] != model[j].item {
						t.Fatalf("Ready(%d)[%d] = %d, model %d", c, j, got[j], model[j].item)
					}
				}
				model = model[n:]
			}
			// Invariants checked after every op.
			if cal.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", cal.Len(), len(model))
			}
			wantNext := Never
			if len(model) > 0 {
				wantNext = model[0].at
			}
			if got := cal.NextReady(); got != wantNext {
				t.Fatalf("NextReady = %d, model %d", got, wantNext)
			}
			if item, at, ok := cal.Peek(); ok != (len(model) > 0) || (ok && (item != model[0].item || at != model[0].at)) {
				t.Fatalf("Peek = (%d,%d,%v), model head %v", item, at, ok, model[:min(1, len(model))])
			}
		}
	})
}

// FuzzScheduler drives random register/wake/rearm/cancel/next sequences
// against a reference copy of every subscriber's armed cycle: NextWake
// must always equal the minimum, and Armed each subscriber's entry.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 9, 3, 0, 4, 4})
	f.Add([]byte{0, 0, 0, 1, 7, 2, 2, 1, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sc := NewScheduler("fuzz")
		var armed []Cycle // reference copy
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], Cycle(ops[i+1])
			if len(armed) == 0 || op%5 == 0 {
				sc.Register("x")
				armed = append(armed, Never)
				continue
			}
			id := int(arg) % len(armed)
			switch op % 5 {
			case 1:
				sc.WakeAt(id, Cycle(op))
				if Cycle(op) < armed[id] {
					armed[id] = Cycle(op)
				}
			case 2:
				sc.Rearm(id, Cycle(op))
				armed[id] = Cycle(op)
			case 3:
				sc.Rearm(id, Never)
				armed[id] = Never
			case 4:
				// Pure observation round; nothing mutates.
			}
			want := Never
			for _, a := range armed {
				if a < want {
					want = a
				}
			}
			if got := sc.NextWake(); got != want {
				t.Fatalf("NextWake = %d, reference %d (armed=%v)", got, want, armed)
			}
			for j, a := range armed {
				if sc.Armed(j) != a {
					t.Fatalf("Armed(%d) = %d, reference %d", j, sc.Armed(j), a)
				}
			}
		}
	})
}

// TestSchedulerRandomizedAgainstModel is the always-on (non-fuzz-mode)
// randomized sweep over the same op space as FuzzScheduler, with longer
// sequences than practical seed corpora.
func TestSchedulerRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := NewScheduler("rand")
	const n = 16
	armed := make([]Cycle, n)
	for i := 0; i < n; i++ {
		sc.Register("x")
		armed[i] = Never
	}
	for step := 0; step < 20000; step++ {
		id := rng.Intn(n)
		at := Cycle(rng.Intn(512))
		switch rng.Intn(3) {
		case 0:
			sc.WakeAt(id, at)
			if at < armed[id] {
				armed[id] = at
			}
		case 1:
			sc.Rearm(id, at)
			armed[id] = at
		case 2:
			sc.Rearm(id, Never)
			armed[id] = Never
		}
		want := Never
		for _, a := range armed {
			if a < want {
				want = a
			}
		}
		if got := sc.NextWake(); got != want {
			t.Fatalf("step %d: NextWake = %d, reference %d", step, got, want)
		}
	}
}
