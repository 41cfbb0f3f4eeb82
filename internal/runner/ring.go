package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Consistent-hash ring over named members. This is the placement math
// behind the service layer's sharded tier: each member contributes
// Vnodes virtual points on a 64-bit ring, and a JobKey is owned by the
// first point at or clockwise after its Hash64. Because both the key
// hash and the point hashes are SHA-256 derived, placement is a pure
// function of (member set, key) — stable across processes, restarts,
// and hosts — and adding or removing one member of N remaps only the
// ≈1/N arc the change touches. Every other key keeps its owner, which
// is what preserves per-member cache affinity across membership
// changes.
//
// A Ring is immutable once built: membership changes construct a new
// Ring (WithMember/WithoutMember), so the coordinator compares the ring
// before a change with the one after key by key — the exact set
// difference it re-places or warm-hands-off when the pool grows or
// shrinks.

// RingVnodes is the default virtual-node count per member. 64 keeps the
// largest/smallest arc ratio in the low single-digit percent for small
// pools.
const RingVnodes = 64

// Ring is an immutable consistent-hash ring over a set of members.
type Ring struct {
	vnodes  int
	members []string // construction order, deduped
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// RingPointHash places one virtual node: the same 8-byte SHA-256
// prefix JobKey.Hash64 uses for keys, applied to "member#i".
func RingPointHash(member string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", member, i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over members with vnodes virtual points each
// (vnodes <= 0 selects RingVnodes). Blank and duplicate members are
// dropped; an empty ring is valid and owns nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = RingVnodes
	}
	r := &Ring{vnodes: vnodes}
	seen := map[string]bool{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: RingPointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member name so the ring
		// is a pure function of the member SET, not insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the member set in construction order. The slice is
// shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Has reports whether m is a member.
func (r *Ring) Has(m string) bool {
	for _, have := range r.members {
		if have == m {
			return true
		}
	}
	return false
}

// WithMember returns a new ring with m added (or r itself if m is
// already a member or blank).
func (r *Ring) WithMember(m string) *Ring {
	if m == "" || r.Has(m) {
		return r
	}
	return NewRing(append(append([]string{}, r.members...), m), r.vnodes)
}

// WithoutMember returns a new ring with m removed (or r itself if m is
// not a member).
func (r *Ring) WithoutMember(m string) *Ring {
	if !r.Has(m) {
		return r
	}
	keep := make([]string, 0, len(r.members)-1)
	for _, have := range r.members {
		if have != m {
			keep = append(keep, have)
		}
	}
	return NewRing(keep, r.vnodes)
}

// Owner returns the member owning key — the first point at or clockwise
// after the key's hash. ok is false for an empty ring.
func (r *Ring) Owner(key JobKey) (string, bool) {
	return r.OwnerHash(key.Hash64())
}

// OwnerHash is Owner on a precomputed routing hash.
func (r *Ring) OwnerHash(h uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].member, true
}

// Walk visits members clockwise from key's ring position, each distinct
// member once, until visit returns false or the ring is exhausted. The
// first member visited is the key's owner; the rest are its failover
// order — the same sequence a re-placement after that owner's death
// would choose.
func (r *Ring) Walk(key JobKey, visit func(member string) bool) {
	if len(r.points) == 0 {
		return
	}
	h := key.Hash64()
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	visited := make(map[string]bool, len(r.members))
	for n := 0; n < len(r.points); n++ {
		m := r.points[(start+n)%len(r.points)].member
		if visited[m] {
			continue
		}
		visited[m] = true
		if !visit(m) {
			return
		}
	}
}

// Shares returns each member's owned fraction of the 64-bit hash space
// — the expected share of a uniformly hashed key population it serves.
// Shares sum to 1 (up to float rounding) on a non-empty ring.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// Arc (prev, p.hash] belongs to p's member; uint64 subtraction
		// wraps correctly for the point straddling zero.
		arc := p.hash - prev
		if len(r.points) == 1 {
			out[p.member] = 1
			return out
		}
		out[p.member] += float64(arc) / (1 << 64)
	}
	return out
}
