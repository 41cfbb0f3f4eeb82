package warp

import (
	"math/bits"
	"testing"
	"testing/quick"

	"gpulat/internal/isa"
)

// testProg is what the stack tests' warps run: the divergence stack
// never reads the program, only its register file is sized by it.
var testProg = isa.NewBuilder("t").Exit().Build()

func TestInitialState(t *testing.T) {
	w := New(0, 0, testProg, 32, 20)
	if w.PC() != 0 {
		t.Fatal("initial PC not 0")
	}
	if bits.OnesCount32(w.ActiveMask()) != 20 {
		t.Fatalf("active = %d, want 20", bits.OnesCount32(w.ActiveMask()))
	}
	if w.Done() {
		t.Fatal("fresh warp done")
	}
}

func TestBadLaneCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0, testProg, 32, 33)
}

func TestUniformBranch(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	w.Branch(5, 10, 20, 100, w.ActiveMask()) // all taken
	if w.PC() != 10 || w.StackDepth() != 1 {
		t.Fatalf("PC=%d depth=%d", w.PC(), w.StackDepth())
	}
	w.Branch(10, 3, 20, 100, 0) // none taken
	if w.PC() != 11 || w.StackDepth() != 1 {
		t.Fatalf("PC=%d depth=%d after not-taken", w.PC(), w.StackDepth())
	}
}

func TestDivergenceAndReconvergence(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	taken := uint32(0x0000FFFF)
	w.Branch(5, 10, 20, 100, taken)
	// Taken path on top.
	if w.PC() != 10 || w.ActiveMask() != taken {
		t.Fatalf("taken path: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	if w.StackDepth() != 3 {
		t.Fatalf("depth=%d, want 3", w.StackDepth())
	}
	// Taken path reaches reconvergence.
	w.Advance(20)
	if w.PC() != 6 || w.ActiveMask() != 0xFFFF0000 {
		t.Fatalf("not-taken path: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	// Not-taken path reaches reconvergence.
	w.Advance(20)
	if w.PC() != 20 || w.ActiveMask() != 0xFFFFFFFF {
		t.Fatalf("reconverged: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	if w.StackDepth() != 1 {
		t.Fatalf("depth=%d after reconvergence", w.StackDepth())
	}
}

func TestNestedDivergence(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	w.Branch(0, 10, 30, 100, 0x000000FF) // outer: 8 lanes to 10
	if w.PC() != 10 {
		t.Fatal("outer taken not on top")
	}
	w.Branch(10, 15, 25, 100, 0x0000000F) // inner divergence among the 8
	if w.PC() != 15 || w.ActiveMask() != 0x0000000F {
		t.Fatalf("inner taken: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	w.Advance(25) // inner taken reconverges
	if w.PC() != 11 || w.ActiveMask() != 0x000000F0 {
		t.Fatalf("inner not-taken: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	w.Advance(25) // inner not-taken reconverges
	if w.PC() != 25 || w.ActiveMask() != 0x000000FF {
		t.Fatalf("inner reconverged: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	w.Advance(30) // outer taken path done
	if w.PC() != 1 || w.ActiveMask() != 0xFFFFFF00 {
		t.Fatalf("outer not-taken: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	w.Advance(30)
	if w.PC() != 30 || w.ActiveMask() != 0xFFFFFFFF || w.StackDepth() != 1 {
		t.Fatalf("outer reconverged: PC=%d mask=%#x depth=%d", w.PC(), w.ActiveMask(), w.StackDepth())
	}
}

func TestExitAllLanes(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	w.ExitLanes(w.ActiveMask(), 1)
	if !w.Done() {
		t.Fatal("warp not done after all lanes exit")
	}
	if w.ActiveMask() != 0 {
		t.Fatal("done warp has active lanes")
	}
}

func TestPredicatedExit(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	w.ExitLanes(0x0000FFFF, 7) // half the lanes exit
	if w.Done() {
		t.Fatal("warp done with live lanes")
	}
	if w.PC() != 7 || w.ActiveMask() != 0xFFFF0000 {
		t.Fatalf("survivors: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
}

func TestExitOnDivergentPath(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	w.Branch(0, 10, 20, 100, 0x000000FF)
	// Taken path exits entirely: control falls to not-taken path.
	w.ExitLanes(w.ActiveMask(), 11)
	if w.Done() {
		t.Fatal("warp done while not-taken path pending")
	}
	if w.PC() != 1 || w.ActiveMask() != 0xFFFFFF00 {
		t.Fatalf("after path exit: PC=%d mask=%#x", w.PC(), w.ActiveMask())
	}
	// Not-taken path reconverges; reconvergence entry must exclude the
	// exited lanes.
	w.Advance(20)
	if w.ActiveMask() != 0xFFFFFF00 {
		t.Fatalf("reconverged mask=%#x should exclude exited lanes", w.ActiveMask())
	}
}

func TestReconvergeAtProgramEnd(t *testing.T) {
	w := New(0, 0, testProg, 32, 32)
	// Reconvergence PC == program length: paths never merge by PC.
	w.Branch(0, 10, 50, 50, 0x1)
	if w.PC() != 10 {
		t.Fatal("taken path not on top")
	}
	// Even if the path reaches PC 50 it must not pop via RPC equality;
	// lanes are expected to EXIT instead.
	w.ExitLanes(w.ActiveMask(), 11)
	if w.Done() {
		t.Fatal("other path still live")
	}
	w.ExitLanes(w.ActiveMask(), 2)
	if !w.Done() {
		t.Fatal("warp should be done")
	}
}

func TestTakenMaskValidation(t *testing.T) {
	w := New(0, 0, testProg, 32, 8) // only 8 lanes active
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid taken mask")
		}
	}()
	w.Branch(0, 5, 9, 100, 0xFFFF)
}

// Property: random divergence trees always terminate with all lanes
// exited and never leave the stack in an inconsistent state.
func TestDivergenceTerminationProperty(t *testing.T) {
	f := func(script []uint32) bool {
		w := New(0, 0, testProg, 32, 32)
		steps := 0
		for !w.Done() && steps < 10000 {
			steps++
			op := uint32(0)
			if len(script) > 0 {
				op = script[steps%len(script)]
			}
			active := w.ActiveMask()
			switch op % 3 {
			case 0: // branch with random subset taken
				taken := op & active
				w.Branch(w.PC(), w.PC()+2, w.PC()+4, 1<<30, taken)
			case 1: // plain advance
				w.Advance(w.PC() + 1)
			case 2: // exit a random subset (or all if subset empty)
				m := op & active
				if m == 0 {
					m = active
				}
				w.ExitLanes(m, w.PC()+1)
			}
			if !w.Done() && w.ActiveMask() == 0 {
				return false // live warp with no active lanes
			}
		}
		// Exit everything still live.
		for !w.Done() && steps < 20000 {
			steps++
			w.ExitLanes(w.ActiveMask(), w.PC()+1)
		}
		return w.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
