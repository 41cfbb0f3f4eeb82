// Package cache implements the set-associative cache model used for both
// the per-SM L1 data caches and the per-partition L2 slices. It models tag
// state (invalid / reserved / valid), LRU and FIFO replacement, write-
// through and write-back policies, and an MSHR table that merges redundant
// misses to the same line — the structure whose queueing behavior the
// paper identifies as a key dynamic latency contributor.
package cache

import (
	"fmt"
	"math/bits"

	"gpulat/internal/mem"
	"gpulat/internal/sim"
)

// ReplPolicy selects the victim-choice policy.
type ReplPolicy uint8

const (
	// LRU evicts the least recently used valid line.
	LRU ReplPolicy = iota
	// FIFO evicts the line allocated earliest.
	FIFO
)

// String names the policy.
func (p ReplPolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "FIFO"
}

// WritePolicy selects store handling.
type WritePolicy uint8

const (
	// WriteThroughNoAlloc forwards every store downstream and never
	// allocates on a store miss (the Fermi L1 global-store policy).
	// Store hits update the line in place so subsequent loads hit.
	WriteThroughNoAlloc WritePolicy = iota
	// WriteBackAlloc allocates on store misses (fetch-on-write) and
	// marks lines dirty; dirty victims generate writeback traffic
	// (the L2 policy).
	WriteBackAlloc
)

// String names the policy.
func (p WritePolicy) String() string {
	if p == WriteThroughNoAlloc {
		return "write-through/no-allocate"
	}
	return "write-back/write-allocate"
}

// Config describes one cache instance.
type Config struct {
	Name        string
	Sets        int
	Ways        int
	LineSize    uint32
	Replacement ReplPolicy
	Write       WritePolicy
	// MSHREntries is the number of distinct outstanding miss lines;
	// MSHRMaxMerge is the maximum number of requests merged per entry
	// (including the primary miss).
	MSHREntries  int
	MSHRMaxMerge int
	// HitLatency is the lookup pipeline depth; the owner applies it to
	// hit responses. It is carried here so configuration stays in one
	// place.
	HitLatency sim.Cycle
}

// SizeBytes returns the cache capacity.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * uint64(c.LineSize)
}

func (c Config) validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	case c.LineSize < 2 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size must be a power of two of at least 2, got %d", c.Name, c.LineSize)
	case c.MSHREntries <= 0:
		return fmt.Errorf("cache %s: MSHR entries must be positive, got %d", c.Name, c.MSHREntries)
	case c.MSHRMaxMerge <= 0:
		return fmt.Errorf("cache %s: MSHR max merge must be positive, got %d", c.Name, c.MSHRMaxMerge)
	}
	return nil
}

// Status is the outcome of a cache access.
type Status uint8

const (
	// Hit: data present; the request completes after HitLatency.
	Hit Status = iota
	// HitReserved: the line is already being fetched; the request was
	// merged into the existing MSHR entry and completes on fill.
	HitReserved
	// Miss: an MSHR entry and a line were reserved; the caller must
	// forward the request toward the next level.
	Miss
	// ReservationFail: no MSHR entry, merge slot, or evictable line was
	// available; the caller must retry later. This is the cache-side
	// source of the queueing delays the paper measures.
	ReservationFail
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case HitReserved:
		return "hit-reserved"
	case Miss:
		return "miss"
	case ReservationFail:
		return "reservation-fail"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// AccessResult describes the outcome of an access, including any dirty
// line evicted to make room (write-back caches only).
type AccessResult struct {
	Status Status
	// Writeback, when non-nil, is the dirty victim line that must be
	// written downstream (untracked traffic per the paper's rule).
	Writeback *Eviction
}

// Eviction describes a dirty line displaced by an allocation.
type Eviction struct {
	Addr uint64
	Size uint32
}

type lineState uint8

const (
	lineInvalid lineState = iota
	lineReserved
	lineValid
)

// line is one way's replacement state. Its tag lives in the cache's keys
// array, so a set scan reads 8 bytes per way; mshr is the way's in-flight
// fetch, non-nil exactly while the line is reserved. stamp orders victims:
// the last use under LRU (allocation, hit, fill), the allocation under
// FIFO.
type line struct {
	state lineState
	dirty bool
	stamp uint64
	mshr  *mshrEntry
}

type mshrEntry struct {
	requests []*mem.Request
	// storeFill marks that the fill must leave the line dirty (a merged
	// or primary store under write-allocate).
	storeFill bool
}

// present marks a way's key as holding a block: block addresses are
// line-aligned and lines are at least 2 bytes, so bit 0 is free.
const present = 1

// Cache is one set-associative cache instance. It is purely a tag/state
// model: data contents live in the functional mem.Memory, so the cache
// tracks presence, not bytes. Set s owns ways [s*Ways, (s+1)*Ways) of
// keys (block address | present, 0 for an invalid way) and lines.
type Cache struct {
	cfg       Config
	keys      []uint64
	lines     []line
	lineShift uint
	setMask   uint64
	mshrs     int // lines reserved, each holding one MSHR entry
	stampSq   uint64

	// memoKey/memoWay remember the last lookup: the key and its way, or
	// -1 when absent. Only a victim allocation or Reset changes a key,
	// so a Probe followed by its Access, or a head retried every cycle,
	// scans the set once.
	memoKey uint64
	memoWay int

	// mshrFree recycles MSHR entries (and their merged-request slices)
	// released by Fill, so steady-state miss traffic allocates nothing;
	// wbScratch backs the AccessResult.Writeback pointer, overwritten by
	// the next Access.
	mshrFree  []*mshrEntry
	wbScratch Eviction

	stats Stats
}

// Stats counts cache activity.
type Stats struct {
	Hits             uint64
	Misses           uint64
	MSHRMerges       uint64
	ReservationFails uint64
	Evictions        uint64
	Writebacks       uint64
	Fills            uint64
}

// New constructs a cache; it panics on invalid configuration (configs are
// static program data, so misconfiguration is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:       cfg,
		keys:      make([]uint64, cfg.Sets*cfg.Ways),
		lines:     make([]line, cfg.Sets*cfg.Ways),
		lineShift: uint(bits.TrailingZeros32(cfg.LineSize)),
		setMask:   uint64(cfg.Sets - 1),
	}
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// AddReservationFails credits n reservation-failed accesses without
// performing them. This is the event engine's idle-replay hook: when a
// requester parks behind a reservation failure and sleeps, the
// cycle-driven loop would have retried (and provably failed) the access
// every cycle of the span. A failed access moves nothing but this
// counter, so crediting it is the entire replay.
func (c *Cache) AddReservationFails(n uint64) { c.stats.ReservationFails += n }

// setBase is the first way of blockAddr's set: LineSize and Sets are
// powers of two, so the set index is a shift and a mask.
func (c *Cache) setBase(blockAddr uint64) int {
	return int(blockAddr>>c.lineShift&c.setMask) * c.cfg.Ways
}

// BlockAddr truncates addr to the cache's line granularity.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return mem.LineAddr(addr, c.cfg.LineSize)
}

// lookup returns blockAddr's line, or nil when no way holds it. A miss on
// the memo scans the set's keys and memoizes the answer.
func (c *Cache) lookup(blockAddr uint64) *line {
	if key := blockAddr | present; key != c.memoKey {
		c.memoKey, c.memoWay = key, -1
		base := c.setBase(blockAddr)
		for w, k := range c.keys[base : base+c.cfg.Ways] {
			if k == key {
				c.memoWay = base + w
				break
			}
		}
	}
	if c.memoWay < 0 {
		return nil
	}
	return &c.lines[c.memoWay]
}

// victim selects an evictable way in the set for blockAddr, or -1 if all
// ways are reserved (fetch in flight) and nothing may be displaced.
func (c *Cache) victim(blockAddr uint64) int {
	base, best := c.setBase(blockAddr), -1
	for w := base; w < base+c.cfg.Ways; w++ {
		ln := &c.lines[w]
		switch {
		case ln.state == lineInvalid:
			return w
		case ln.state == lineReserved: // a fetch in flight is never displaced
		case best < 0 || ln.stamp < c.lines[best].stamp:
			best = w
		}
	}
	return best
}

// getMSHR pops a recycled MSHR entry (retained requests capacity) or
// allocates one.
func (c *Cache) getMSHR() *mshrEntry {
	n := len(c.mshrFree)
	if n == 0 {
		return &mshrEntry{}
	}
	e := c.mshrFree[n-1]
	c.mshrFree = c.mshrFree[:n-1]
	e.requests = e.requests[:0]
	return e
}

// Access performs a timing-model access for req at cycle cy. For loads,
// a Miss reserves a line and an MSHR entry and the caller forwards the
// request downstream; HitReserved parks the request on the existing MSHR
// entry. Store behavior depends on the write policy; see WritePolicy.
// The result's Writeback pointer aliases cache-owned scratch and is
// valid only until the next Access; callers copy the fields.
func (c *Cache) Access(cy sim.Cycle, req *mem.Request) AccessResult {
	blockAddr := c.BlockAddr(req.Addr)
	c.stampSq++

	if ln := c.lookup(blockAddr); ln != nil {
		switch ln.state {
		case lineValid:
			if c.cfg.Replacement == LRU {
				ln.stamp = c.stampSq
			}
			if req.Kind == mem.KindStore {
				if c.cfg.Write == WriteBackAlloc {
					ln.dirty = true
				}
				// Write-through stores also "hit" but the caller
				// forwards them downstream regardless.
			}
			c.stats.Hits++
			return AccessResult{Status: Hit}
		case lineReserved:
			// Merge into the in-flight fetch.
			entry := ln.mshr
			if entry == nil {
				panic(fmt.Sprintf("cache %s: reserved line %#x without MSHR", c.cfg.Name, blockAddr))
			}
			if len(entry.requests) >= c.cfg.MSHRMaxMerge {
				c.stats.ReservationFails++
				return AccessResult{Status: ReservationFail}
			}
			if req.Kind == mem.KindStore && c.cfg.Write == WriteThroughNoAlloc {
				// Write-through stores do not wait on the fill; the
				// caller forwards them. Report a plain miss-like pass-
				// through without consuming a merge slot.
				c.stats.Hits++
				return AccessResult{Status: Hit}
			}
			entry.requests = append(entry.requests, req)
			if req.Kind == mem.KindStore {
				entry.storeFill = true
			}
			c.stats.MSHRMerges++
			return AccessResult{Status: HitReserved}
		}
	}

	// Miss path.
	if req.Kind == mem.KindStore && c.cfg.Write == WriteThroughNoAlloc {
		// No allocation on store miss; the store simply passes through.
		c.stats.Misses++
		return AccessResult{Status: Miss}
	}

	if c.mshrs >= c.cfg.MSHREntries {
		c.stats.ReservationFails++
		return AccessResult{Status: ReservationFail}
	}
	w := c.victim(blockAddr)
	if w < 0 {
		c.stats.ReservationFails++
		return AccessResult{Status: ReservationFail}
	}

	vic := &c.lines[w]
	var wb *Eviction
	if vic.state == lineValid {
		c.stats.Evictions++
		if vic.dirty {
			c.wbScratch = Eviction{Addr: c.keys[w] &^ present, Size: c.cfg.LineSize}
			wb = &c.wbScratch
			c.stats.Writebacks++
		}
	}
	entry := c.getMSHR()
	entry.requests = append(entry.requests, req)
	entry.storeFill = req.Kind == mem.KindStore
	*vic = line{state: lineReserved, stamp: c.stampSq, mshr: entry}
	c.keys[w] = blockAddr | present
	c.memoKey, c.memoWay = blockAddr|present, w
	c.mshrs++
	c.stats.Misses++
	return AccessResult{Status: Miss, Writeback: wb}
}

// Fill completes the in-flight fetch of blockAddr: the reserved line
// becomes valid and all merged requests are returned so the owner can
// complete them. Fill panics if no fetch is in flight for blockAddr —
// that would mean the memory system delivered an unrequested fill.
// The returned slice aliases a recycled MSHR entry and is valid only
// until the next Access on this cache; both owners (the SM's response
// drain, the partition's DRAM drain) consume it before their next
// access pass.
func (c *Cache) Fill(cy sim.Cycle, blockAddr uint64) []*mem.Request {
	ln := c.lookup(blockAddr)
	if ln == nil || ln.mshr == nil || blockAddr != c.BlockAddr(blockAddr) {
		panic(fmt.Sprintf("cache %s: fill for unknown block %#x", c.cfg.Name, blockAddr))
	}
	entry := ln.mshr
	ln.mshr = nil
	c.mshrs--
	ln.state = lineValid
	ln.dirty = entry.storeFill && c.cfg.Write == WriteBackAlloc
	c.stampSq++
	if c.cfg.Replacement == LRU {
		ln.stamp = c.stampSq
	}
	c.stats.Fills++
	c.mshrFree = append(c.mshrFree, entry)
	return entry.requests
}

// Probe reports, without side effects, how an access to addr would
// resolve: a valid line (hit), a reserved line (in-flight fetch), or
// neither (miss). Owners use it to decide whether downstream resources
// must be available before committing to an Access.
func (c *Cache) Probe(addr uint64) Status {
	ln := c.lookup(c.BlockAddr(addr))
	switch {
	case ln == nil:
		return Miss
	case ln.state == lineValid:
		return Hit
	default:
		return HitReserved
	}
}

// MSHRsInUse returns the number of outstanding miss entries.
func (c *Cache) MSHRsInUse() int { return c.mshrs }

// Contains reports whether blockAddr is present and valid (test helper
// and warmup verification).
func (c *Cache) Contains(addr uint64) bool {
	ln := c.lookup(c.BlockAddr(addr))
	return ln != nil && ln.state == lineValid
}

// Reset invalidates all lines and clears MSHRs (between-kernel reuse).
// Dirty data is discarded; callers that need writeback must drain first.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.lines)
	c.mshrs, c.memoKey = 0, 0
}
