package service

import (
	"errors"
	"fmt"
	"testing"

	"gpulat/internal/runner"
)

func poolKeys(n int) []runner.JobKey {
	keys := make([]runner.JobKey, n)
	for i := range keys {
		keys[i] = testJob(i).Key()
	}
	return keys
}

// TestBackendPoolEmptyIsValid: an empty pool (no static -backends,
// waiting for runtime joins) routes nothing but is otherwise
// functional, and the first Join makes it routable.
func TestBackendPoolEmptyIsValid(t *testing.T) {
	for _, addrs := range [][]string{nil, {" ", ""}} {
		c := newCore(addrs...)
		if len(c.members) != 0 {
			t.Fatalf("pool over %q not empty: len=%d", addrs, len(c.members))
		}
		if b := c.route(testJob(0).Key(), nil); b != nil {
			t.Fatalf("empty pool routed to %s", b.addr)
		}
		if c.epoch != 1 {
			t.Fatalf("initial epoch = %d, want 1", c.epoch)
		}
	}
	c := newCore()
	if ch, _, err := c.join("a:1"); err != nil || !ch.Changed || c.epoch != 2 {
		t.Fatalf("first join: %+v, %v, epoch=%d", ch, err, c.epoch)
	}
	if b := c.route(testJob(0).Key(), nil); b == nil || b.addr != "http://a:1" {
		t.Fatalf("pool not routable after first join: %v", b)
	}
}

func TestBackendPoolNormalizesAndDedupes(t *testing.T) {
	c := newCore("127.0.0.1:1", "http://127.0.0.1:1/", "127.0.0.1:2")
	if len(c.members) != 2 || c.ring.Len() != 2 {
		t.Fatalf("members = %d, ring %d; want 2 (dup collapsed)", len(c.members), c.ring.Len())
	}
	if c.members[0].addr != "http://127.0.0.1:1" {
		t.Fatalf("addr not normalized: %s", c.members[0].addr)
	}
}

// TestBackendPoolRoutingIsDeterministicAndSpread: same key → same
// backend on every call and across independently built pools, and a
// key population spreads over all backends.
func TestBackendPoolRoutingIsDeterministicAndSpread(t *testing.T) {
	addrs := []string{"10.0.0.1:9", "10.0.0.2:9", "10.0.0.3:9"}
	p1 := newCore(addrs...)
	p2 := newCore(addrs...)
	counts := map[string]int{}
	for _, key := range poolKeys(300) {
		a := p1.route(key, nil)
		b := p2.route(key, nil)
		if a == nil || b == nil || a.addr != b.addr {
			t.Fatalf("routing not deterministic for %s", key)
		}
		if a != p1.route(key, nil) {
			t.Fatalf("routing not stable for %s", key)
		}
		counts[a.addr]++
	}
	for _, addr := range addrs {
		n := counts[normalizeBackendAddr(addr)]
		if n == 0 {
			t.Fatalf("backend %s owns no keys: %v", addr, counts)
		}
	}
}

// TestBackendPoolFailureOnlyRemapsOwnedKeys is the cache-affinity
// property consistent hashing buys: opening one backend's circuit
// remaps exactly the keys it owned — every other key keeps its backend.
func TestBackendPoolFailureOnlyRemapsOwnedKeys(t *testing.T) {
	p := newCore("a:1", "b:1", "c:1")
	keys := poolKeys(300)
	before := map[runner.JobKey]string{}
	for _, key := range keys {
		before[key] = p.route(key, nil).addr
	}
	dead := p.members[1]
	dead.reportFailure(1, errors.New("down"), false)
	if !dead.open {
		t.Fatal("circuit did not open at threshold")
	}
	remapped := 0
	for _, key := range keys {
		b := p.route(key, nil)
		if b == nil || b == dead {
			t.Fatalf("key %s routed to dead backend", key)
		}
		if before[key] == dead.addr {
			remapped++
			continue
		}
		if b.addr != before[key] {
			t.Fatalf("key %s moved from healthy backend %s to %s", key, before[key], b.addr)
		}
	}
	if remapped == 0 {
		t.Fatal("dead backend owned no keys — degenerate test population")
	}
	// Recovery closes the circuit and restores the original placement.
	dead.reportSuccess(false)
	for _, key := range keys {
		if p.route(key, nil).addr != before[key] {
			t.Fatalf("placement of %s not restored after recovery", key)
		}
	}
}

func TestBackendPoolRouteAvoidAndExhaustion(t *testing.T) {
	p := newCore("a:1", "b:1")
	key := testJob(0).Key()
	owner := p.route(key, nil)
	other := p.route(key, owner)
	if other == nil || other == owner {
		t.Fatalf("avoid not honored: owner=%v other=%v", owner, other)
	}
	// With the other backend down, avoid's sole survivor is returned
	// anyway — retrying the last routable backend beats failing the job.
	other.reportFailure(1, errors.New("down"), false)
	if got := p.route(key, owner); got != owner {
		t.Fatalf("sole survivor not returned: %v", got)
	}
	owner.reportFailure(1, errors.New("down"), false)
	if got := p.route(key, nil); got != nil {
		t.Fatalf("all-down pool routed to %s", got.addr)
	}
	if !owner.open || !other.open {
		t.Fatal("a backend stayed healthy in an all-down pool")
	}
}

// TestBackendCircuitProbeAndCallStreaksAreIndependent: a backend whose
// /v1/healthz answers happily while its job handling is broken must
// still fail out — succeeding probes must not reset the call-failure
// streak. And once the circuit is open, a good probe is the recovery
// path that closes it.
func TestBackendCircuitProbeAndCallStreaksAreIndependent(t *testing.T) {
	c := newCore("a:1")
	b := c.members[0]
	for i := 0; i < 2; i++ {
		b.reportFailure(3, errors.New("jobs wedged"), false)
		b.reportSuccess(true) // chirpy healthz in between
	}
	if b.open {
		t.Fatal("circuit opened before the call threshold")
	}
	if b.reportFailure(3, errors.New("jobs wedged"), false); !b.open {
		t.Fatal("third consecutive call failure did not open the circuit despite healthy probes")
	}
	// Recovery: with the circuit open, a good probe closes it and
	// resets both streaks.
	if b.reportSuccess(true); b.open {
		t.Fatal("good probe did not close the open circuit")
	}
	if b.open || c.backends()[0].ConsecutiveFailures != 0 {
		t.Fatalf("recovery did not reset streaks: %+v", c.backends()[0])
	}
}

func TestBackendStatusSnapshot(t *testing.T) {
	c := newCore("a:1")
	b := c.members[0]
	b.reportFailure(2, fmt.Errorf("boom"), false)
	sts := c.backends()
	if len(sts) != 1 || !sts[0].Healthy || sts[0].Circuit != "closed" || sts[0].ConsecutiveFailures != 1 {
		t.Fatalf("one failure below threshold: %+v", sts[0])
	}
	b.reportFailure(2, fmt.Errorf("boom again"), false)
	sts = c.backends()
	if sts[0].Healthy || sts[0].Circuit != "open" || sts[0].LastError == "" {
		t.Fatalf("circuit not reported open: %+v", sts[0])
	}
}
