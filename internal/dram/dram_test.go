package dram

import (
	"testing"
	"testing/quick"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:        "test",
		Banks:       4,
		RowBytes:    2048,
		TRCD:        12,
		TRP:         12,
		TCL:         12,
		TRAS:        28,
		TWR:         10,
		BurstCycles: 4,
		QueueDepth:  16,
		Scheduler:   FRFCFS,
	}
}

func dreq(id uint64, addr uint64, kind mem.Kind) *mem.Request {
	return &mem.Request{ID: id, Addr: addr, Size: 128, Kind: kind, Log: &mem.StageLog{}}
}

// run ticks the channel until all pushed requests complete or maxCycles
// elapse, returning completion cycles by request ID.
func run(ch *Channel, total int, maxCycles sim.Cycle) map[uint64]sim.Cycle {
	done := map[uint64]sim.Cycle{}
	for c := sim.Cycle(0); c < maxCycles && len(done) < total; c++ {
		ch.Tick(c)
		for _, r := range ch.Completed(c) {
			done[r.ID] = c
		}
	}
	return done
}

func TestSingleReadClosedBankLatency(t *testing.T) {
	cfg := testConfig()
	ch := NewChannel(cfg)
	r := dreq(1, 0, mem.KindLoad)
	r.Log.Mark(mem.PtDRAMQArrive, 0)
	ch.Push(0, r)
	done := run(ch, 1, 1000)
	if len(done) != 1 {
		t.Fatal("request did not complete")
	}
	sched := r.Log.MustAt(mem.PtDRAMSched)
	fin := r.Log.MustAt(mem.PtDRAMDone)
	if sched != 0 {
		t.Fatalf("scheduled at %d, want 0 (idle channel)", sched)
	}
	want := cfg.TRCD + cfg.TCL + cfg.BurstCycles
	if fin-sched != want {
		t.Fatalf("closed-bank read latency = %d, want %d", fin-sched, want)
	}
	if ch.UnloadedReadLatency() != want {
		t.Fatalf("UnloadedReadLatency = %d, want %d", ch.UnloadedReadLatency(), want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := testConfig()
	ch := NewChannel(cfg)
	// Two reads to the same row: second is a row hit.
	a := dreq(1, 0, mem.KindLoad)
	b := dreq(2, 128, mem.KindLoad)
	ch.Push(0, a)
	ch.Push(0, b)
	run(ch, 2, 1000)
	st := ch.Stats()
	if st.RowHits != 1 || st.RowOpens != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Conflict: same bank, different row.
	ch2 := NewChannel(cfg)
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Banks)
	c1 := dreq(1, 0, mem.KindLoad)
	c2 := dreq(2, rowStride, mem.KindLoad)
	ch2.Push(0, c1)
	ch2.Push(0, c2)
	run(ch2, 2, 1000)
	if ch2.Stats().RowConflicts != 1 {
		t.Fatalf("conflict stats: %+v", ch2.Stats())
	}
	hitLat := b.Log.MustAt(mem.PtDRAMDone) - b.Log.MustAt(mem.PtDRAMSched)
	confLat := c2.Log.MustAt(mem.PtDRAMDone) - c2.Log.MustAt(mem.PtDRAMSched)
	if hitLat >= confLat {
		t.Fatalf("row hit latency %d not faster than conflict %d", hitLat, confLat)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := testConfig()
	ch := NewChannel(cfg)
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Banks)
	// Open row 0 on bank 0.
	warm := dreq(1, 0, mem.KindLoad)
	ch.Push(0, warm)
	done := run(ch, 1, 1000)
	open := done[1]

	// Queue: older conflict request, newer row-hit request, same bank.
	conflict := dreq(2, rowStride, mem.KindLoad)
	hit := dreq(3, 64, mem.KindLoad)
	ch.Push(open+1, conflict)
	ch.Push(open+2, hit)
	for c := open + 3; c < open+1000; c++ {
		ch.Tick(c)
		ch.Completed(c)
		if ch.QueueLen() == 0 {
			break
		}
	}
	hs := hit.Log.MustAt(mem.PtDRAMSched)
	cs := conflict.Log.MustAt(mem.PtDRAMSched)
	if hs >= cs {
		t.Fatalf("FR-FCFS scheduled row hit at %d after conflict at %d", hs, cs)
	}
}

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Scheduler = FCFS
	ch := NewChannel(cfg)
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Banks)
	warm := dreq(1, 0, mem.KindLoad)
	ch.Push(0, warm)
	done := run(ch, 1, 1000)
	open := done[1]

	conflict := dreq(2, rowStride, mem.KindLoad)
	hit := dreq(3, 64, mem.KindLoad)
	ch.Push(open+1, conflict)
	ch.Push(open+2, hit)
	for c := open + 3; c < open+1000; c++ {
		ch.Tick(c)
		ch.Completed(c)
		if ch.QueueLen() == 0 && ch.InflightLen() == 0 {
			break
		}
	}
	if hit.Log.MustAt(mem.PtDRAMSched) <= conflict.Log.MustAt(mem.PtDRAMSched) {
		t.Fatal("FCFS reordered requests")
	}
}

func TestBankParallelismUnderFRFCFS(t *testing.T) {
	cfg := testConfig()
	ch := NewChannel(cfg)
	// Requests to different banks can be in service concurrently:
	// schedule times must be 1 cycle apart (1 command/cycle), far less
	// than full serial service.
	reqs := make([]*mem.Request, cfg.Banks)
	for i := range reqs {
		reqs[i] = dreq(uint64(i+1), uint64(i)*uint64(cfg.RowBytes), mem.KindLoad)
		ch.Push(0, reqs[i])
	}
	run(ch, len(reqs), 10000)
	// Bank-parallel requests pipeline at the data-bus rate: schedule
	// spacing must not exceed the burst occupancy (far less than full
	// serial service, which would be TRCD+TCL+burst apart).
	for i := 1; i < len(reqs); i++ {
		prev := reqs[i-1].Log.MustAt(mem.PtDRAMSched)
		cur := reqs[i].Log.MustAt(mem.PtDRAMSched)
		if cur-prev > cfg.BurstCycles {
			t.Fatalf("bank-parallel requests scheduled %d cycles apart, want <= %d", cur-prev, cfg.BurstCycles)
		}
	}
}

func TestDataBusSerialization(t *testing.T) {
	cfg := testConfig()
	ch := NewChannel(cfg)
	// Many row hits to the same open row: finishes must be spaced at
	// least BurstCycles apart (shared data bus).
	warm := dreq(100, 0, mem.KindLoad)
	ch.Push(0, warm)
	done := run(ch, 1, 1000)
	start := done[100]
	var reqs []*mem.Request
	for i := 0; i < 6; i++ {
		r := dreq(uint64(i+1), uint64(i*64), mem.KindLoad)
		reqs = append(reqs, r)
		ch.Push(start+1, r)
	}
	for c := start + 1; c < start+5000; c++ {
		ch.Tick(c)
		ch.Completed(c)
		if ch.QueueLen() == 0 && ch.InflightLen() == 0 {
			break
		}
	}
	for i := 1; i < len(reqs); i++ {
		a := reqs[i-1].Log.MustAt(mem.PtDRAMDone)
		b := reqs[i].Log.MustAt(mem.PtDRAMDone)
		if b < a+cfg.BurstCycles {
			t.Fatalf("bursts overlap on data bus: %d then %d", a, b)
		}
	}
}

func TestWriteRecoveryDelaysBankReuse(t *testing.T) {
	cfg := testConfig()
	// Compare a write-then-read pair against a read-then-read pair on
	// the same row: write recovery must delay the second access by at
	// least TWR relative to the read-read case.
	sched2 := func(kind mem.Kind) sim.Cycle {
		ch := NewChannel(cfg)
		a := dreq(1, 0, kind)
		b := dreq(2, 64, mem.KindLoad)
		ch.Push(0, a)
		ch.Push(0, b)
		run(ch, 2, 2000)
		return b.Log.MustAt(mem.PtDRAMSched)
	}
	afterRead := sched2(mem.KindLoad)
	afterWrite := sched2(mem.KindStore)
	if afterWrite < afterRead+cfg.TWR {
		t.Fatalf("read after write scheduled at %d; after read at %d; want >= +TWR(%d)",
			afterWrite, afterRead, cfg.TWR)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	ch := NewChannel(cfg)
	ch.Push(0, dreq(1, 0, mem.KindLoad))
	ch.Push(0, dreq(2, 4096, mem.KindLoad))
	if ch.CanPush() {
		t.Fatal("queue should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on push to full queue")
		}
	}()
	ch.Push(0, dreq(3, 8192, mem.KindLoad))
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowBytes = 1000 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.BurstCycles = 0 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewChannel(cfg)
		}()
	}
}

// Property: every pushed request completes exactly once, with monotonic
// stage stamps, under random addresses and both schedulers.
func TestAllRequestsCompleteProperty(t *testing.T) {
	f := func(addrSeeds []uint16, fcfs bool) bool {
		cfg := testConfig()
		if fcfs {
			cfg.Scheduler = FCFS
		}
		cfg.QueueDepth = 1 << 16
		ch := NewChannel(cfg)
		if len(addrSeeds) > 64 {
			addrSeeds = addrSeeds[:64]
		}
		reqs := map[uint64]*mem.Request{}
		for i, s := range addrSeeds {
			r := dreq(uint64(i+1), uint64(s)*64, mem.KindLoad)
			r.Log.Mark(mem.PtDRAMQArrive, 0)
			ch.Push(0, r)
			reqs[r.ID] = r
		}
		done := run(ch, len(reqs), 1_000_000)
		if len(done) != len(reqs) {
			return false
		}
		for _, r := range reqs {
			if !r.Log.Monotonic() {
				return false
			}
			if _, ok := r.Log.At(mem.PtDRAMSched); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: under FR-FCFS, mean queue wait is never worse than 10x FCFS
// on a row-local workload (sanity: the row-hit-first policy helps or at
// minimum does not catastrophically regress ordered workloads).
func TestFRFCFSRowLocalityBenefit(t *testing.T) {
	mk := func(pol SchedPolicy) uint64 {
		cfg := testConfig()
		cfg.Scheduler = pol
		cfg.QueueDepth = 256
		ch := NewChannel(cfg)
		rng := sim.NewRNG(7)
		n := 0
		for i := 0; i < 128; i++ {
			// 75% of requests hit one hot row; rest random rows.
			var addr uint64
			if rng.Intn(4) != 0 {
				addr = uint64(rng.Intn(32)) * 64
			} else {
				addr = uint64(rng.Intn(64)) * 8192
			}
			ch.Push(0, dreq(uint64(i+1), addr, mem.KindLoad))
			n++
		}
		run(ch, n, 1_000_000)
		return ch.Stats().QueueWaitSum / uint64(n)
	}
	fr := mk(FRFCFS)
	fc := mk(FCFS)
	if fr > fc {
		t.Fatalf("FR-FCFS mean wait %d worse than FCFS %d on row-local workload", fr, fc)
	}
}

// refPick is the former pick: every queue entry carried its arrival
// sequence number (seq[i] for queue[i]), and each policy searched for the
// lowest among its candidates.
func (ch *Channel) refPick(c sim.Cycle, seq []uint64) int {
	busOK := func(b *bankState, row uint64) bool {
		var casStart sim.Cycle
		switch {
		case b.rowOpen && b.openRow == row:
			casStart = c
		case !b.rowOpen:
			casStart = c + ch.cfg.TRCD
		default:
			pStart := c
			if b.everActive && b.lastActAt+ch.cfg.TRAS > pStart {
				pStart = b.lastActAt + ch.cfg.TRAS
			}
			casStart = pStart + ch.cfg.TRP + ch.cfg.TRCD
		}
		return casStart+ch.cfg.TCL >= ch.busFreeAt
	}
	if len(ch.queue) == 0 {
		return -1
	}
	switch ch.cfg.Scheduler {
	case FRFCFSCap:
		cap := ch.cfg.CapStreak
		if cap <= 0 {
			cap = 4
		}
		bestHit, bestAny := -1, -1
		for i := range ch.queue {
			p := &ch.queue[i]
			b := &ch.banks[p.bank]
			if b.busyUntil > c || !busOK(b, p.row) {
				continue
			}
			if b.rowOpen && b.openRow == p.row && b.hitStreak < cap {
				if bestHit < 0 || seq[i] < seq[bestHit] {
					bestHit = i
				}
			}
			if bestAny < 0 || seq[i] < seq[bestAny] {
				bestAny = i
			}
		}
		if bestHit >= 0 {
			return bestHit
		}
		return bestAny
	case FCFS:
		head := 0
		for i := range ch.queue {
			if seq[i] < seq[head] {
				head = i
			}
		}
		hb := &ch.banks[ch.queue[head].bank]
		if hb.busyUntil <= c && busOK(hb, ch.queue[head].row) {
			return head
		}
		return -1
	case FRFCFS:
		bestHit, bestAny := -1, -1
		for i := range ch.queue {
			p := &ch.queue[i]
			b := &ch.banks[p.bank]
			if b.busyUntil > c || !busOK(b, p.row) {
				continue
			}
			if b.rowOpen && b.openRow == p.row {
				if bestHit < 0 || seq[i] < seq[bestHit] {
					bestHit = i
				}
			}
			if bestAny < 0 || seq[i] < seq[bestAny] {
				bestAny = i
			}
		}
		if bestHit >= 0 {
			return bestHit
		}
		return bestAny
	}
	return -1
}

// TestPickMatchesSeqReference runs pick in lock-step with the seq-based
// reference over seeded random traffic — a few rows per bank, so row
// hits, opens and conflicts all occur, and a quarter stores, so write
// recovery staggers the banks — under every scheduler.
func TestPickMatchesSeqReference(t *testing.T) {
	for _, pol := range []SchedPolicy{FRFCFS, FCFS, FRFCFSCap} {
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := testConfig()
			cfg.Scheduler = pol
			cfg.CapStreak = 2
			cfg.QueueDepth = 8
			ch := NewChannel(cfg)
			rng := sim.NewRNG(seed)
			var seq []uint64 // arrival sequence of each queue entry
			pushed, picked, reordered := uint64(0), 0, 0
			for c := sim.Cycle(0); c < 3000; c++ {
				for n := rng.Intn(3); n > 0 && ch.CanPush(); n-- {
					rowAddr := uint64(rng.Intn(3 * cfg.Banks))
					kind := mem.KindLoad
					if rng.Intn(4) == 0 {
						kind = mem.KindStore
					}
					pushed++
					ch.Push(c, dreq(pushed, rowAddr*uint64(cfg.RowBytes)+uint64(rng.Intn(16))*64, kind))
					seq = append(seq, pushed)
				}
				got, want := ch.pick(c), ch.refPick(c, seq)
				if got != want {
					t.Fatalf("%v seed %d cycle %d: pick = %d, seq reference = %d (queue %s)",
						pol, seed, c, got, want, ch.DebugState())
				}
				ch.Tick(c)
				if got >= 0 {
					seq = append(seq[:got], seq[got+1:]...)
					picked++
				}
				if got > 0 {
					reordered++
				}
				ch.Completed(c)
			}
			// FR-FCFS variants must have passed over the oldest request.
			if picked < 150 || (pol != FCFS && reordered == 0) {
				t.Fatalf("%v seed %d: %d requests scheduled, %d out of arrival order", pol, seed, picked, reordered)
			}
		}
	}
}
