package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
)

// ringKeys synthesizes a large uniformly hashed key population without
// running any simulations: JobKeys are hex SHA-256 digests, so hashing
// an integer produces exactly the shape Job.Key would.
func ringKeys(n int) []JobKey {
	keys := make([]JobKey, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("ring-key-%d", i)))
		keys[i] = JobKey(hex.EncodeToString(sum[:]))
	}
	return keys
}

func ringMembers(n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://10.0.0.%d:9", i+1)
	}
	return members
}

// owners is each key's owner on r, in key order.
func owners(r *Ring, keys []JobKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i], _ = r.OwnerHash(k.Hash64())
	}
	return out
}

// TestRingJoinMovesAboutOneOverN is the rebalance property the elastic
// tier banks on: adding one member to a pool of N moves ≈1/(N+1) of a
// large key population — never a wholesale reshuffle — and every moved
// key moves TO the joiner.
func TestRingJoinMovesAboutOneOverN(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 4, 8} {
		members := ringMembers(n + 1)
		before := NewRing(members[:n], 0)
		after := before.WithMember(members[n])

		moved := 0
		for i, to := range owners(after, keys) {
			from, _ := before.OwnerHash(keys[i].Hash64())
			if from == to {
				continue
			}
			moved++
			if to != members[n] {
				t.Fatalf("N=%d: key %s moved to %s, not the joiner", n, keys[i], to)
			}
			if from == members[n] || from == "" {
				t.Fatalf("N=%d: bogus move source %q", n, from)
			}
		}
		expected := 1.0 / float64(n+1)
		frac := float64(moved) / float64(len(keys))
		// 64 vnodes bound the arc-length variance; the ring is fully
		// deterministic (SHA-256 placement), so this is a fixed fact
		// about these member names, not a flaky sample.
		if frac < 0.5*expected || frac > 2.0*expected {
			t.Errorf("N=%d: join moved %.4f of keys, want ≈%.4f (accepted [%.4f, %.4f])",
				n, frac, expected, 0.5*expected, 2.0*expected)
		}
	}
}

// TestRingLeaveMovesExactlyTheLeaversKeys: removing a member moves
// exactly the keys it owned — every move originates at the leaver, and
// the moved fraction matches the leaver's share of the hash space.
func TestRingLeaveMovesExactlyTheLeaversKeys(t *testing.T) {
	keys := ringKeys(20000)
	members := ringMembers(8)
	before := NewRing(members, 0)
	leaver := members[3]
	after := before.WithoutMember(leaver)

	owned, moved := 0, 0
	for i, to := range owners(after, keys) {
		from, _ := before.OwnerHash(keys[i].Hash64())
		if from == leaver {
			owned++
		}
		if from == to {
			continue
		}
		moved++
		if from != leaver {
			t.Fatalf("key %s moved from %s, not the leaver", keys[i], from)
		}
		if to == leaver || to == "" {
			t.Fatalf("key %s moved to bogus destination %q", keys[i], to)
		}
	}
	if moved != owned {
		t.Fatalf("leave moved %d keys, leaver owned %d — not an exact set difference", moved, owned)
	}
	expected := 1.0 / 8
	frac := float64(moved) / float64(len(keys))
	if frac < 0.5*expected || frac > 2.0*expected {
		t.Errorf("leave moved %.4f of keys, want ≈%.4f", frac, expected)
	}
}

// TestRingOwnershipDeltaIsExact pins what lets a membership change
// compare the ring before with the one after key by key: a ring is
// immutable, so deriving a new one leaves every owner on the old one as
// it was, and leaving the joiner again restores the placement exactly.
func TestRingOwnershipDeltaIsExact(t *testing.T) {
	keys := ringKeys(5000)
	members := ringMembers(5)
	r1 := NewRing(members[:4], 0)
	was := owners(r1, keys)
	r2 := r1.WithMember(members[4])
	if !slices.Equal(owners(r1, keys), was) {
		t.Fatal("WithMember changed owners on the ring it was derived from")
	}
	if slices.Equal(owners(r2, keys), was) {
		t.Fatal("a join moved no key")
	}
	r3 := r2.WithoutMember(members[4])
	if !slices.Equal(owners(r3, keys), was) {
		t.Fatal("join+leave did not restore placement")
	}
}

// TestRingSharesSumToOne: the advertised vnode-ownership fractions are
// a probability distribution, and each member's share is within the
// vnode-bounded deviation of 1/N.
func TestRingSharesSumToOne(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		r := NewRing(ringMembers(n), 0)
		shares := r.Shares()
		if len(shares) != n {
			t.Fatalf("N=%d: %d shares", n, len(shares))
		}
		sum := 0.0
		for m, s := range shares {
			sum += s
			if s < 0.25/float64(n) || s > 3.0/float64(n) {
				t.Errorf("N=%d: member %s share %.4f far from 1/N", n, m, s)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("N=%d: shares sum to %.12f", n, sum)
		}
	}
	if got := NewRing(nil, 0).Shares(); len(got) != 0 {
		t.Fatalf("empty ring has shares: %v", got)
	}
}

// TestRingEmptyAndWalk: an empty ring owns nothing; Walk enumerates
// every member exactly once starting from the owner.
func TestRingEmptyAndWalk(t *testing.T) {
	empty := NewRing(nil, 0)
	if _, ok := empty.OwnerHash(ringKeys(1)[0].Hash64()); ok {
		t.Fatal("empty ring claimed an owner")
	}
	r := NewRing(ringMembers(4), 0)
	key := ringKeys(1)[0]
	var order []string
	r.Walk(key, func(m string) bool {
		order = append(order, m)
		return true
	})
	if len(order) != 4 {
		t.Fatalf("walk visited %d members, want 4", len(order))
	}
	owner, _ := r.OwnerHash(key.Hash64())
	if order[0] != owner {
		t.Fatalf("walk started at %s, owner is %s", order[0], owner)
	}
	seen := map[string]bool{}
	for _, m := range order {
		if seen[m] {
			t.Fatalf("walk visited %s twice", m)
		}
		seen[m] = true
	}
}
