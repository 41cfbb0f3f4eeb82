package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"gpulat/internal/mem"
)

// refCache is an executable specification of an LRU set-associative
// cache with immediate fills: a map of resident lines plus per-set LRU
// ordering, with no MSHR/reservation machinery. The timing cache, driven
// with immediate fills, must agree with it on every hit/miss decision.
type refCache struct {
	sets     int
	ways     int
	lineSize uint32
	lines    map[uint64]uint64 // blockAddr -> lastUse stamp
	stamp    uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		sets: cfg.Sets, ways: cfg.Ways, lineSize: cfg.LineSize,
		lines: map[uint64]uint64{},
	}
}

func (rc *refCache) setOf(block uint64) uint64 {
	return (block / uint64(rc.lineSize)) % uint64(rc.sets)
}

// access returns true on hit and performs LRU update / fill+eviction.
func (rc *refCache) access(addr uint64) bool {
	block := mem.LineAddr(addr, rc.lineSize)
	rc.stamp++
	if _, ok := rc.lines[block]; ok {
		rc.lines[block] = rc.stamp
		return true
	}
	// Miss: evict LRU within the set if full.
	set := rc.setOf(block)
	var victim uint64
	var victimStamp uint64
	count := 0
	for b, s := range rc.lines {
		if rc.setOf(b) != set {
			continue
		}
		count++
		if victimStamp == 0 || s < victimStamp {
			victim, victimStamp = b, s
		}
	}
	if count >= rc.ways {
		delete(rc.lines, victim)
	}
	rc.lines[block] = rc.stamp
	return false
}

// TestCacheMatchesLRUReference drives the timing cache with immediate
// fills through random load streams and cross-checks every access
// outcome against the executable LRU specification.
func TestCacheMatchesLRUReference(t *testing.T) {
	f := func(addrSeeds []uint16) bool {
		cfg := Config{
			Name: "ref", Sets: 8, Ways: 2, LineSize: 64,
			Replacement: LRU, Write: WriteBackAlloc,
			MSHREntries: 64, MSHRMaxMerge: 8,
		}
		c := New(cfg)
		ref := newRefCache(cfg)
		for i, s := range addrSeeds {
			addr := uint64(s%1024) * 32
			res := c.Access(0, &mem.Request{ID: uint64(i), Addr: addr, Size: 32, Kind: mem.KindLoad})
			wantHit := ref.access(addr)
			switch res.Status {
			case Hit:
				if !wantHit {
					return false
				}
			case Miss:
				if wantHit {
					return false
				}
				c.Fill(0, c.BlockAddr(addr)) // immediate fill
			default:
				// With immediate fills there is never an in-flight line.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStatsConsistency checks counter bookkeeping invariants under
// random mixed traffic: hits+misses+reservation fails equals accesses,
// and fills never exceed misses.
func TestCacheStatsConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := Config{
			Name: "stats", Sets: 4, Ways: 2, LineSize: 128,
			Replacement: LRU, Write: WriteBackAlloc,
			MSHREntries: 4, MSHRMaxMerge: 2,
		}
		c := New(cfg)
		accesses := uint64(0)
		inflight := map[uint64]bool{}
		for i, op := range ops {
			if op&0x8000 != 0 && len(inflight) > 0 {
				for b := range inflight {
					c.Fill(0, b)
					delete(inflight, b)
					break
				}
				continue
			}
			addr := uint64(op%64) * 64
			kind := mem.KindLoad
			if op&0x4000 != 0 {
				kind = mem.KindStore
			}
			res := c.Access(0, &mem.Request{ID: uint64(i), Addr: addr, Size: 32, Kind: kind})
			accesses++
			if res.Status == Miss && (kind == mem.KindLoad || cfg.Write == WriteBackAlloc) {
				inflight[c.BlockAddr(addr)] = true
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses+st.MSHRMerges+st.ReservationFails != accesses {
			return false
		}
		return st.Fills <= st.Misses && st.Writebacks <= st.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// mapCache is the cache this package's flat keys replaced: each set a
// slice of lines carrying their own tags, scanned way by way, the set
// found by a divide and a modulo, and outstanding misses in a map keyed
// by block. TestCacheMatchesMapMSHRReference lock-steps it with Cache.
type mapCache struct {
	cfg     Config
	sets    [][]mapLine
	mshrs   map[uint64]*mshrEntry
	stampSq uint64
	free    []*mshrEntry
	wb      Eviction
	stats   Stats
}

type mapLine struct {
	tag     uint64
	state   lineState
	dirty   bool
	lastUse uint64
	allocAt uint64
}

func newMapCache(cfg Config) *mapCache {
	sets := make([][]mapLine, cfg.Sets)
	for i := range sets {
		sets[i] = make([]mapLine, cfg.Ways)
	}
	return &mapCache{cfg: cfg, sets: sets, mshrs: map[uint64]*mshrEntry{}}
}

func (c *mapCache) set(blockAddr uint64) []mapLine {
	return c.sets[(blockAddr/uint64(c.cfg.LineSize))%uint64(c.cfg.Sets)]
}

func (c *mapCache) lookup(blockAddr uint64) *mapLine {
	set := c.set(blockAddr)
	for i := range set {
		if set[i].state != lineInvalid && set[i].tag == blockAddr {
			return &set[i]
		}
	}
	return nil
}

func (c *mapCache) victim(blockAddr uint64) *mapLine {
	set := c.set(blockAddr)
	var best *mapLine
	for i := range set {
		ln := &set[i]
		switch ln.state {
		case lineInvalid:
			return ln
		case lineValid:
			if best == nil ||
				c.cfg.Replacement == LRU && ln.lastUse < best.lastUse ||
				c.cfg.Replacement == FIFO && ln.allocAt < best.allocAt {
				best = ln
			}
		}
	}
	return best
}

func (c *mapCache) Access(req *mem.Request) AccessResult {
	blockAddr := mem.LineAddr(req.Addr, c.cfg.LineSize)
	c.stampSq++
	store := req.Kind == mem.KindStore
	if ln := c.lookup(blockAddr); ln != nil {
		if ln.state == lineValid {
			ln.lastUse = c.stampSq
			if store && c.cfg.Write == WriteBackAlloc {
				ln.dirty = true
			}
			c.stats.Hits++
			return AccessResult{Status: Hit}
		}
		entry := c.mshrs[blockAddr]
		if len(entry.requests) >= c.cfg.MSHRMaxMerge {
			c.stats.ReservationFails++
			return AccessResult{Status: ReservationFail}
		}
		if store && c.cfg.Write == WriteThroughNoAlloc {
			c.stats.Hits++
			return AccessResult{Status: Hit}
		}
		entry.requests = append(entry.requests, req)
		entry.storeFill = entry.storeFill || store
		c.stats.MSHRMerges++
		return AccessResult{Status: HitReserved}
	}
	if store && c.cfg.Write == WriteThroughNoAlloc {
		c.stats.Misses++
		return AccessResult{Status: Miss}
	}
	vic := c.victim(blockAddr)
	if len(c.mshrs) >= c.cfg.MSHREntries || vic == nil {
		c.stats.ReservationFails++
		return AccessResult{Status: ReservationFail}
	}
	var wb *Eviction
	if vic.state == lineValid {
		c.stats.Evictions++
		if vic.dirty {
			c.wb = Eviction{Addr: vic.tag, Size: c.cfg.LineSize}
			wb = &c.wb
			c.stats.Writebacks++
		}
	}
	*vic = mapLine{tag: blockAddr, state: lineReserved, lastUse: c.stampSq, allocAt: c.stampSq}
	entry := &mshrEntry{}
	if n := len(c.free); n > 0 {
		entry, c.free = c.free[n-1], c.free[:n-1]
		entry.requests = entry.requests[:0]
	}
	entry.requests = append(entry.requests, req)
	entry.storeFill = store
	c.mshrs[blockAddr] = entry
	c.stats.Misses++
	return AccessResult{Status: Miss, Writeback: wb}
}

func (c *mapCache) Fill(blockAddr uint64) []*mem.Request {
	entry := c.mshrs[blockAddr]
	delete(c.mshrs, blockAddr)
	ln := c.lookup(blockAddr)
	ln.state = lineValid
	ln.dirty = entry.storeFill && c.cfg.Write == WriteBackAlloc
	c.stampSq++
	ln.lastUse = c.stampSq
	c.stats.Fills++
	c.free = append(c.free, entry)
	return entry.requests
}

func (c *mapCache) Probe(addr uint64) Status {
	ln := c.lookup(mem.LineAddr(addr, c.cfg.LineSize))
	switch {
	case ln == nil:
		return Miss
	case ln.state == lineValid:
		return Hit
	default:
		return HitReserved
	}
}

func (c *mapCache) Contains(addr uint64) bool {
	ln := c.lookup(mem.LineAddr(addr, c.cfg.LineSize))
	return ln != nil && ln.state == lineValid
}

func (c *mapCache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	clear(c.mshrs)
}

// TestCacheMatchesMapMSHRReference drives Cache and mapCache through
// the same seeded Probe/Access/Fill/Reset stream over L1- and L2-shaped
// configs, both write policies, LRU and FIFO and MSHR and merge limits
// of 1-2, so reservation failures, merges and dirty evictions are
// common. Every status, writeback, filled request list (in order),
// MSHRsInUse, Stats and Contains answer must agree.
func TestCacheMatchesMapMSHRReference(t *testing.T) {
	var seen Stats
	for _, shape := range []struct{ sets, ways int }{{4, 4}, {8, 8}} {
		for _, write := range []WritePolicy{WriteThroughNoAlloc, WriteBackAlloc} {
			for _, repl := range []ReplPolicy{LRU, FIFO} {
				for entries := 1; entries <= 2; entries++ {
					for merge := 1; merge <= 2; merge++ {
						cfg := Config{Name: "lockstep", Sets: shape.sets, Ways: shape.ways, LineSize: 128,
							Replacement: repl, Write: write, MSHREntries: entries, MSHRMaxMerge: merge}
						name := fmt.Sprintf("%dx%d/%v/%v/mshr%d/merge%d", shape.sets, shape.ways, write, repl, entries, merge)
						st := lockstepCache(t, name, cfg, int64(len(name)*entries*merge))
						seen.ReservationFails += st.ReservationFails
						seen.MSHRMerges += st.MSHRMerges
						seen.Writebacks += st.Writebacks
						seen.Hits += st.Hits
					}
				}
			}
		}
	}
	if seen.ReservationFails < 1000 || seen.MSHRMerges < 1000 || seen.Writebacks < 1000 || seen.Hits < 1000 {
		t.Fatalf("the traffic is too tame: %+v", seen)
	}
	t.Logf("summed over configs: %+v", seen)
}

// lockstepCache runs one config's stream and returns the final stats.
func lockstepCache(t *testing.T, name string, cfg Config, seed int64) Stats {
	rng := rand.New(rand.NewSource(seed))
	got, ref := New(cfg), newMapCache(cfg)
	// Blocks span 1.5x the capacity, offsets stay within the line.
	blocks := 3 * cfg.Sets * cfg.Ways / 2
	addr := func() uint64 {
		return uint64(rng.Intn(blocks))*uint64(cfg.LineSize) + uint64(rng.Intn(int(cfg.LineSize)))
	}
	var inflight []uint64
	for step := 0; step < 6000; step++ {
		where := fmt.Sprintf("%s step %d", name, step)
		switch op := rng.Intn(200); {
		case op == 0:
			got.Reset()
			ref.Reset()
			inflight = inflight[:0]
		case op < 50:
			a := addr()
			if g, w := got.Probe(a), ref.Probe(a); g != w {
				t.Fatalf("%s: Probe(%#x) = %v, reference %v", where, a, g, w)
			}
		case op < 90 && len(inflight) > 0:
			i := rng.Intn(len(inflight))
			b := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			g, w := got.Fill(0, b), ref.Fill(b)
			if !slices.Equal(g, w) {
				t.Fatalf("%s: Fill(%#x) returned %v, reference %v", where, b, g, w)
			}
		default:
			req := &mem.Request{ID: uint64(step), Addr: addr(), Size: 32, Kind: mem.KindLoad}
			if len(inflight) > 0 && rng.Intn(4) == 0 {
				req.Addr = inflight[rng.Intn(len(inflight))] + req.Addr%uint64(cfg.LineSize)
			}
			if rng.Intn(3) == 0 {
				req.Kind = mem.KindStore
			}
			g, w := got.Access(0, req), ref.Access(req)
			if g.Status != w.Status || (g.Writeback == nil) != (w.Writeback == nil) ||
				g.Writeback != nil && *g.Writeback != *w.Writeback {
				t.Fatalf("%s: Access(%v %#x) = %+v, reference %+v", where, req.Kind, req.Addr, g, w)
			}
			if g.Status == Miss && ref.mshrs[got.BlockAddr(req.Addr)] != nil && !slices.Contains(inflight, got.BlockAddr(req.Addr)) {
				inflight = append(inflight, got.BlockAddr(req.Addr))
			}
		}
		if got.MSHRsInUse() != len(ref.mshrs) || got.Stats() != ref.stats {
			t.Fatalf("%s: MSHRsInUse %d stats %+v; reference %d %+v", where, got.MSHRsInUse(), got.Stats(), len(ref.mshrs), ref.stats)
		}
		if a := addr(); got.Contains(a) != ref.Contains(a) {
			t.Fatalf("%s: Contains(%#x) = %v, reference %v", where, a, got.Contains(a), ref.Contains(a))
		}
	}
	return got.Stats()
}

// TestLineFitsBudget keeps a way's replacement state within 24 bytes, so
// a way (its 8-byte key and its line) costs no more than the 32-byte
// tag-carrying line it replaced: a line that takes its tag back, or keeps
// a stamp per policy, fails here.
func TestLineFitsBudget(t *testing.T) {
	if size := unsafe.Sizeof(line{}); size > 24 {
		t.Fatalf("cache line is %d bytes; the budget is 24", size)
	}
}
