package mem

import (
	"testing"
	"testing/quick"

	"gpulat/internal/sim"
)

func TestMemoryLoadStore32(t *testing.T) {
	m := NewMemory()
	m.Store32(0x1000, 0xDEADBEEF)
	if got := m.Load32(0x1000); got != 0xDEADBEEF {
		t.Fatalf("Load32 = %#x", got)
	}
	if got := m.Load32(0x2000); got != 0 {
		t.Fatalf("unwritten memory reads %#x, want 0", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 2) // straddles first page boundary
	m.Store32(addr, 0x11223344)
	if got := m.Load32(addr); got != 0x11223344 {
		t.Fatalf("straddling Load32 = %#x", got)
	}
	// Byte-level check across the boundary.
	if m.Load8(pageSize-1) != 0x33 || m.Load8(pageSize) != 0x22 {
		t.Fatalf("straddle bytes wrong: %#x %#x", m.Load8(pageSize-1), m.Load8(pageSize))
	}
}

func TestMemorySliceHelpers(t *testing.T) {
	m := NewMemory()
	vals := []uint32{1, 2, 3, 4, 5}
	m.Store32Slice(0x100, vals)
	for i := range vals {
		if got := m.Load32(0x100 + uint64(i)*4); got != vals[i] {
			t.Fatalf("slice roundtrip[%d] = %d", i, got)
		}
	}
}

// TestMemoryLastPageMemo drives the one-entry page memo through the
// cases where a stale or wrongly set entry would show.
func TestMemoryLastPageMemo(t *testing.T) {
	m := NewMemory()
	// A load before any page exists neither allocates nor sets the memo
	// (page number 0 is also the memo's zero value).
	if m.Load32(8) != 0 || m.last != nil || m.Footprint() != 0 {
		t.Fatalf("a load of empty memory left last=%p footprint=%d", m.last, m.Footprint())
	}
	// Interleaved pages: every access changes page.
	const a, b = 0x10, 5*pageSize + 0x10
	for i := uint64(0); i < 8; i++ {
		m.Store32(a+4*i, uint32(100+i))
		m.Store32(b+4*i, uint32(200+i))
	}
	for i := uint64(0); i < 8; i++ {
		if ga, gb := m.Load32(a+4*i), m.Load32(b+4*i); ga != uint32(100+i) || gb != uint32(200+i) {
			t.Fatalf("word %d: pages read %d / %d", i, ga, gb)
		}
	}
	// A load of an unallocated page between two hits of an allocated one
	// reads zero, allocates nothing and leaves the memo on the real page.
	held := m.last
	if m.Load32(9*pageSize) != 0 || m.last != held || m.Load32(b) != 200 {
		t.Fatal("a load of an unallocated page disturbed the memo")
	}
	if got := m.Footprint(); got != 2*pageSize {
		t.Fatalf("footprint %d after touching two pages, want %d", got, 2*pageSize)
	}
	// A word straddling a page boundary goes byte by byte through both
	// pages, the second not yet allocated.
	m.Store32(6*pageSize-1, 0xA1B2C3D4)
	if got := m.Load32(6*pageSize - 1); got != 0xA1B2C3D4 {
		t.Fatalf("straddling word = %#x", got)
	}
	if m.Load32(b) != 200 || m.Load32(a) != 100 || m.Footprint() != 3*pageSize {
		t.Fatalf("after the straddle: [b]=%d [a]=%d footprint=%d", m.Load32(b), m.Load32(a), m.Footprint())
	}
}

// Property: Memory agrees with a map-based reference model under random
// 32-bit writes and reads.
func TestMemoryMatchesReferenceModel(t *testing.T) {
	f := func(writes []struct {
		Addr uint16
		Val  uint32
	}) bool {
		m := NewMemory()
		ref := map[uint64]uint32{}
		for _, w := range writes {
			a := uint64(w.Addr) * 4 // aligned, no overlap between words
			m.Store32(a, w.Val)
			ref[a] = w.Val
		}
		for a, v := range ref {
			if m.Load32(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceUnitStride(t *testing.T) {
	var acc []LaneAccess
	for lane := 0; lane < 32; lane++ {
		acc = append(acc, LaneAccess{Lane: lane, Addr: 0x1000 + uint64(lane)*4, Size: 4})
	}
	r := Coalesce(acc, 128)
	if len(r.Segments) != 1 {
		t.Fatalf("unit stride coalesced into %d transactions, want 1", len(r.Segments))
	}
	if r.Segments[0] != 0x1000 {
		t.Fatalf("segment base %#x", r.Segments[0])
	}
	if len(r.Lanes[0]) != 32 {
		t.Fatalf("segment covers %d lanes", len(r.Lanes[0]))
	}
}

func TestCoalesceFullyDivergent(t *testing.T) {
	var acc []LaneAccess
	for lane := 0; lane < 32; lane++ {
		acc = append(acc, LaneAccess{Lane: lane, Addr: uint64(lane) * 4096, Size: 4})
	}
	r := Coalesce(acc, 128)
	if len(r.Segments) != 32 {
		t.Fatalf("divergent warp coalesced into %d transactions, want 32", len(r.Segments))
	}
}

func TestCoalesceStraddlingAccess(t *testing.T) {
	// A 16-byte access that straddles a 128B boundary touches 2 segments.
	r := Coalesce([]LaneAccess{{Lane: 0, Addr: 120, Size: 16}}, 128)
	if len(r.Segments) != 2 {
		t.Fatalf("straddling access made %d transactions, want 2", len(r.Segments))
	}
	if r.Segments[0] != 0 || r.Segments[1] != 128 {
		t.Fatalf("segments: %v", r.Segments)
	}
}

func TestCoalesceSegmentsSortedUnique(t *testing.T) {
	f := func(addrs []uint32) bool {
		var acc []LaneAccess
		for i, a := range addrs {
			acc = append(acc, LaneAccess{Lane: i % 32, Addr: uint64(a), Size: 4})
		}
		r := Coalesce(acc, 128)
		for i := 1; i < len(r.Segments); i++ {
			if r.Segments[i] <= r.Segments[i-1] {
				return false
			}
		}
		for _, s := range r.Segments {
			if s%128 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceBadSegmentSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two segment")
		}
	}()
	Coalesce(nil, 100)
}

func TestStageLogMarkAndDerive(t *testing.T) {
	l := &StageLog{}
	l.Mark(PtIssue, 10)
	l.Mark(PtL1Access, 30)
	l.Mark(PtReturnSM, 55)
	tot, ok := l.Total()
	if !ok || tot != 45 {
		t.Fatalf("Total = %d ok=%v, want 45", tot, ok)
	}
	if !l.Complete() || !l.Monotonic() {
		t.Fatal("log should be complete and monotonic")
	}
	if _, ok := l.At(PtDRAMSched); ok {
		t.Fatal("unmarked point reported as marked")
	}
}

func TestStageLogFirstMarkWins(t *testing.T) {
	l := &StageLog{}
	l.Mark(PtIssue, 5)
	l.Mark(PtIssue, 9)
	c, _ := l.At(PtIssue)
	if c != 5 {
		t.Fatalf("remark overwrote first mark: %d", c)
	}
}

func TestStageLogMonotonicDetectsViolation(t *testing.T) {
	l := &StageLog{}
	l.Mark(PtIssue, 100)
	l.Mark(PtL1Access, 50)
	if l.Monotonic() {
		t.Fatal("non-monotonic log passed Monotonic check")
	}
}

func TestStageLogNilSafe(t *testing.T) {
	var l *StageLog
	l.Mark(PtIssue, 1) // must not panic
	if _, ok := l.At(PtIssue); ok {
		t.Fatal("nil log reported marks")
	}
	if l.Monotonic() {
		t.Fatal("nil log monotonic")
	}
}

// Property: any sequence of Mark calls in canonical order yields a
// monotonic log.
func TestStageLogMonotonicProperty(t *testing.T) {
	f := func(deltas [NumPoints]uint8) bool {
		l := &StageLog{}
		c := sim.Cycle(1)
		for p := Point(0); p < NumPoints; p++ {
			c += sim.Cycle(deltas[p])
			l.Mark(p, c)
		}
		return l.Monotonic() && l.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestTrackedAndString(t *testing.T) {
	r := &Request{ID: 1, Addr: 0x80, Size: 32, SM: 2, Warp: 3, Log: &StageLog{}}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
	wb := &Request{ID: 2, Kind: KindStore}
	if wb.String() == r.String() {
		t.Fatal("two requests render alike")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1FF, 128) != 0x180 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x1FF, 128))
	}
	if LineAddr(0x200, 128) != 0x200 {
		t.Fatal("aligned address changed")
	}
}
