package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"gpulat/internal/runner"
)

// newCore is the placement core NewCoordinator builds over addrs, with
// circuits that open after two failures. Its tests call it the way the
// Coordinator does, one decision or event at a time, and play every
// backend themselves by answering the plans it returns.
func newCore(addrs ...string) *placement {
	cfg := CoordinatorConfig{Backends: addrs, FailThreshold: 2}
	cfg.fill()
	return newPlacement(cfg)
}

// acks answers a forward of group: one ticket per key in status, a done
// one carrying its result.
func acks(group []*jobState, status Status) []JobTicket {
	tks := make([]JobTicket, len(group))
	for i, st := range group {
		tks[i] = JobTicket{Key: st.key, Status: status}
		if status == StatusDone {
			tks[i].Result = wireResult(st.job)
		}
	}
	return tks
}

func wireResult(job runner.Job) json.RawMessage {
	data, _ := json.Marshal(WireResult{Key: job.Key(), Job: job, Metrics: testResult(job).Metrics})
	return data
}

func testJobs(n int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	return jobs
}

// TestCoordinatorCore pins two whole-tier contracts on the core alone.
func TestCoordinatorCore(t *testing.T) {
	// A coordinator killed mid-grid and restarted on its journal
	// re-admits every accepted job and rebuilds its membership, and its
	// first sweep forwards every key: no client resubmits.
	t.Run("journal recovery", func(t *testing.T) {
		jobs := testJobs(10)
		crashed := newCore("a:1")
		_, p1, err1 := crashed.admit(jobs[:5], false)
		_, p2, err2 := crashed.join("b:1")
		_, p3, err3 := crashed.admit(jobs[5:], false)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		c := newCore("a:1")
		c.replay(slices.Concat(p1.journal, p2.journal, p3.journal))
		if s := c.stats; s.Replayed != 10 || s.Queued != 10 || s.Submitted != 0 || c.epoch != 2 || len(c.members) != 2 {
			t.Fatalf("replay: stats %+v, epoch %d, %d members; want 10 replayed over 2 members at epoch 2", s, c.epoch, len(c.members))
		}
		for _, f := range c.sweep().forwards {
			c.forwarded(f.b, f.group, acks(f.group, StatusDone), nil)
		}
		if s := c.stats; s.Done != 10 || c.pending != 0 {
			t.Fatalf("after the first sweep: %+v, %d pending", s, c.pending)
		}
	})
	// Leaving while keys are live re-places every key on the leaver —
	// those the ring gave it and those routed there around an open
	// circuit — on a survivor, for free, and the grid completes.
	t.Run("leave reassigns live keys", func(t *testing.T) {
		c := newCore("a:1", "b:1", "c:1")
		a, leaver := c.members[0], c.members[1]
		c.probed(a, errors.New("down"))
		c.probed(a, errors.New("down"))
		jobs := testJobs(24)
		_, p, err := c.admit(jobs, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.forwards {
			c.forwarded(f.b, f.group, acks(f.group, StatusQueued), nil)
		}
		c.probed(a, nil)
		parked := 0
		for _, st := range c.byKey {
			if owner, _ := c.ring.Owner(st.key); st.backend == leaver && owner != leaver.addr {
				parked++
			}
		}
		ch, p, err := c.leave(leaver.addr)
		if err != nil || parked == 0 || ch.Reassigned == 0 || c.stats.Rerouted != 0 {
			t.Fatalf("leave: %v, change %+v, %d keys parked on the leaver, stats %+v", err, ch, parked, c.stats)
		}
		for _, st := range c.byKey {
			if st.backend == leaver || st.reroutes != 0 {
				t.Fatalf("key %s on %s after %d reroutes, want a survivor for free", st.key, st.backend.addr, st.reroutes)
			}
		}
		for _, f := range p.forwards {
			c.forwarded(f.b, f.group, acks(f.group, StatusDone), nil)
		}
		if s := c.stats; s.Done != ch.Reassigned || c.pending != len(jobs)-ch.Reassigned {
			t.Fatalf("after the drain: %+v, %d pending; want the %d reassigned keys done", s, c.pending, ch.Reassigned)
		}
	})
}

// TestPlaceRule pins what it costs a key to be given a backend, one row
// per reason it needs one (see placement.place). Every row but the last
// plays its backends on the core alone.
func TestPlaceRule(t *testing.T) {
	reroutedAway := func(backends []BackendStatus) (n int64) {
		for _, b := range backends {
			n += b.ReroutedAway
		}
		return n
	}
	// forwardFailing answers every forward of p with a 500 until none
	// is left, and returns how many there were.
	forwardFailing := func(c *placement, p plan) (forwards int) {
		for ; len(p.forwards) > 0; forwards++ {
			f := p.forwards[0]
			p = c.forwarded(f.b, f.group, nil, &APIError{Code: http.StatusInternalServerError})
		}
		return forwards
	}

	// Waits for a backend, then costs nothing.
	t.Run("never placed", func(t *testing.T) {
		jobs := testJobs(3)
		var records []JournalRecord
		for i := range jobs {
			records = append(records, JournalRecord{T: journalJob, Key: jobs[i].Key(), Job: &jobs[i]})
		}
		c := newCore()
		c.replay(records)
		// An empty pool: nothing to place on, nothing fails.
		if p, s := c.sweep(), c.stats; !p.empty() || s.Replayed != 3 || s.Queued != 3 || s.Failed != 0 {
			t.Fatalf("replay into an empty pool: %+v, plan %+v", s, p)
		}
		// A member added by hand, not by the core's join: that one hands
		// an empty ring's keys to the joiner itself, and the point here is
		// that the sweep does.
		b1 := c.addMember("http://b1:1")
		c.ring = c.ring.WithMember(b1.addr)
		p := c.sweep()
		if len(p.forwards) != 1 || p.forwards[0].b != b1 || len(p.forwards[0].group) != 3 {
			t.Fatalf("sweep after the join planned %+v; want the 3 keys on the joiner", p.forwards)
		}
		c.forwarded(b1, p.forwards[0].group, acks(p.forwards[0].group, StatusDone), nil)
		for _, st := range c.byKey {
			if st.reroutes != 0 {
				t.Fatalf("first placement of %s spent %d reroutes", st.key, st.reroutes)
			}
		}
		if s := c.stats; s.Rerouted != 0 || s.Done != 3 {
			t.Fatalf("stats %+v; want the joiner to run 3 of 3", s)
		}
	})
	// Drains for free; fails only when every survivor is down.
	t.Run("backend left", func(t *testing.T) {
		c := newCore("dead:1", "b2:1", "b3:1")
		dead, b2, b3 := c.members[0], c.members[1], c.members[2]
		dead.reportFailure(1, errors.New("connection refused"), true)
		jobs := testJobs(24)
		_, p, err := c.admit(jobs, false)
		for _, f := range p.forwards {
			c.forwarded(f.b, f.group, acks(f.group, StatusQueued), nil)
		}
		ch, _, lerr := c.leave(b2.addr)
		if s := c.stats; errors.Join(err, lerr) != nil || ch.Reassigned == 0 || s.Failed != 0 || s.Rerouted != 0 || reroutedAway(c.backends()) != 0 {
			t.Fatalf("drain to a live survivor: %v, change %+v, stats %+v, rerouted away %d", errors.Join(err, lerr), ch, s, reroutedAway(c.backends()))
		}
		for _, st := range c.byKey {
			if st.backend != b3 || st.reroutes != 0 {
				t.Fatalf("key %s on %s after %d reroutes, want the live survivor for free", st.key, st.backend.addr, st.reroutes)
			}
		}
		// Now the only survivor is the one whose circuit is open.
		ch, _, err = c.leave(b3.addr)
		if s := c.stats; err != nil || ch.Reassigned != 0 || s.Failed != len(jobs) || s.Rerouted != 0 {
			t.Fatalf("drain with every survivor down: %v, change %+v, stats %+v", err, ch, s)
		}
		for _, st := range c.byKey {
			if st.result.Err != ErrNoBackends.Error() {
				t.Fatalf("key %s: %+v; want ErrNoBackends", st.key, st.result)
			}
		}
	})
	// One reroute a hop, terminal at the bound.
	t.Run("backend failed", func(t *testing.T) {
		c := newCore("u1:1", "u2:1")
		c.threshold = 100 // no circuit opens
		_, p, _ := c.admit(testJobs(1), false)
		forwards := forwardFailing(c, p)
		st := c.byKey[testJob(0).Key()]
		if want := fmt.Sprintf("still unplaced after %d reroutes", rerouteBudget); !st.final() || !strings.Contains(st.result.Err, want) {
			t.Fatalf("result %+v; want %q", st.result, want)
		}
		// The first forward plus one per hop, each hop off a different
		// backend than it lands on.
		if s := c.stats; s.Rerouted != rerouteBudget || forwards != rerouteBudget+1 || reroutedAway(c.backends()) != rerouteBudget {
			t.Fatalf("stats %+v, %d forwards, %d rerouted away; want %d hops", s, forwards, reroutedAway(c.backends()), rerouteBudget)
		}
	})
	// The sole routable backend is retried even when it is avoid.
	t.Run("sole survivor", func(t *testing.T) {
		c := newCore("u:1")
		c.threshold = 100
		_, p, _ := c.admit(testJobs(1), false)
		f := p.forwards[0]
		p = c.forwarded(f.b, f.group, nil, &APIError{Code: http.StatusInternalServerError})
		f = p.forwards[0]
		c.forwarded(f.b, f.group, acks(f.group, StatusDone), nil)
		if s := c.stats; s.Rerouted != 1 || reroutedAway(c.backends()) != 0 || len(p.forwards) != 1 || s.Done != 1 {
			t.Fatalf("stats %+v, rerouted away %d, retry planned %+v", s, reroutedAway(c.backends()), p.forwards)
		}
	})
	// One failure, many reporters: the key moves once.
	t.Run("concurrent reporters", func(t *testing.T) {
		ctx := context.Background()
		b1 := newTestBackend(t, nil)
		b2 := newTestBackend(t, nil)
		coord := quietCoordinator(t, b1.ts.URL, b2.ts.URL)
		job := testJob(0)
		if _, err := coord.SubmitMany(ctx, []runner.Job{job}); err != nil {
			t.Fatal(err)
		}
		backend := func() *Backend {
			coord.mu.Lock()
			defer coord.mu.Unlock()
			return coord.byKey[job.Key()].backend
		}
		st, from := coord.lookup(job.Key()), backend()
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// What Wait does with a transport failure.
				coord.mu.Lock()
				coord.act(ctx, coord.waited(st, from, JobStatus{}, errors.New("connection reset")))
				if backend() == from {
					t.Error("a transport failure was not treated as one")
				}
			}()
		}
		wg.Wait()
		coord.mu.Lock()
		reroutes, now := st.reroutes, st.backend
		coord.mu.Unlock()
		if s := coord.Stats(); s.Rerouted != 1 || reroutes != 1 || now == from || reroutedAway(coord.Backends()) != 1 {
			t.Fatalf("stats %+v, %d reroutes, rerouted away %d, moved=%v", s, reroutes, reroutedAway(coord.Backends()), now != from)
		}
		waitAllDone(t, coord, []runner.Job{job})
	})
}

// TestCoordinatorCoreWalk is a model-based random walk over the core:
// submissions, every kind of answer to a forward or a proxied wait,
// probes, joins, leaves, sweeps and a close, in a seeded order. The
// invariants hold after every step, and once the faults stop every
// accepted key finishes within a few sweeps.
func TestCoordinatorCoreWalk(t *testing.T) {
	for seed := range uint64(12) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { walkCore(t, seed, 400) })
	}
}

func walkCore(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	addrs := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	c := newCore(addrs[:3]...)
	c.queueBound = 12
	closeAt := rng.IntN(2 * steps) // half the walks close part-way
	faults := []error{errors.New("connection reset"), &APIError{Code: http.StatusServiceUnavailable},
		&APIError{Code: http.StatusNotFound}} // a restarted backend forgot the key
	var (
		out      []forward // planned, not answered yet
		journal  []JournalRecord
		accepted = map[runner.JobKey]bool{}
		finals   = map[*jobState]Status{}
		step     int
		what     string
	)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
	}
	byKey := func(x, y *jobState) int { return strings.Compare(string(x.key), string(y.key)) }
	// take plays the shell: it keeps the journal records, queues the
	// forwards in an order that does not depend on map iteration, and
	// answers the pulls at once.
	take := func(p plan) {
		if c.closed && !p.empty() {
			fail("planned after close: %+v", p)
		}
		journal = append(journal, p.journal...)
		slices.SortFunc(p.forwards, func(x, y forward) int { return strings.Compare(x.b.addr, y.b.addr) })
		for _, f := range p.forwards {
			slices.SortFunc(f.group, byKey)
			out = append(out, f)
		}
		transferred := 0
		for _, pl := range p.pulls {
			transferred += rng.IntN(len(pl.keys) + 1)
		}
		if p.moved > 0 {
			c.handedOff(p.moved, transferred)
		}
	}
	// live lists the live keys a backend has acknowledged, in key order.
	live := func() (sts []*jobState) {
		for _, st := range c.byKey {
			if !st.final() && st.forwarded {
				sts = append(sts, st)
			}
		}
		slices.SortFunc(sts, byKey)
		return sts
	}
	done := func(st *jobState) JobStatus {
		return JobStatus{Key: st.key, Status: StatusDone, Result: wireResult(st.job)}
	}
	check := func() {
		t.Helper()
		if k, r := kept(&c.jobs), recount(&c.jobs); k != r {
			fail("gauges %+v; a recount of the table gives %+v", k, r)
		}
		for st, was := range finals {
			if !st.final() || st.status != was {
				fail("key %s finished %s, now reads %s", st.key, was, st.status)
			}
		}
		placed := 0
		for _, st := range c.byKey {
			if st.status.terminal() != st.final() {
				fail("key %s reads %s with a final result %v", st.key, st.status, st.final())
			}
			if st.final() {
				finals[st] = st.status
			} else if st.reroutes > rerouteBudget {
				fail("key %s rerouted %d times", st.key, st.reroutes)
			} else if st.backend != nil {
				placed++
				if !c.has(st.backend) {
					fail("live key %s sits on non-member %s", st.key, st.backend.addr)
				}
			}
		}
		for _, b := range c.backends() {
			placed -= b.Assigned
		}
		if placed != 0 {
			fail("backends report %d keys assigned more than are live and placed", -placed)
		}
	}

	kinds := []string{"submit", "submit", "forward answer", "forward answer", "wait answer", "probe", "join", "leave", "sweep"}
	for step = range steps {
		if what = kinds[rng.IntN(len(kinds))]; step == closeAt {
			what = "close"
			c.close()
		}
		switch what {
		case "submit":
			batch := make([]runner.Job, 1+rng.IntN(4))
			for i := range batch {
				batch[i] = testJob(rng.IntN(16))
			}
			tickets, p, _ := c.admit(batch, false)
			for _, tk := range tickets {
				accepted[tk.Key] = true
			}
			take(p)
		case "forward answer":
			if len(out) == 0 {
				continue
			}
			i := rng.IntN(len(out))
			f := out[i]
			out = slices.Delete(out, i, i+1)
			switch k := rng.IntN(6); {
			case k < len(faults):
				take(c.forwarded(f.b, f.group, nil, faults[k]))
			case k == 5: // done without the result
				tks := acks(f.group, StatusDone)
				for i := range tks {
					tks[i].Result = nil
				}
				take(c.forwarded(f.b, f.group, tks, nil))
			default:
				take(c.forwarded(f.b, f.group, acks(f.group, []Status{StatusQueued, StatusDone}[k-len(faults)]), nil))
			}
		case "wait answer":
			sts := live()
			if len(sts) == 0 {
				continue
			}
			st := sts[rng.IntN(len(sts))]
			switch k := rng.IntN(6); {
			case k < len(faults):
				take(c.waited(st, st.backend, JobStatus{}, faults[k]))
			case k == 3:
				take(c.waited(st, st.backend, JobStatus{Key: st.key, Status: StatusRunning}, nil))
			case k == 4:
				take(c.waited(st, st.backend, done(st), nil))
			default: // done without the result
				take(c.waited(st, st.backend, JobStatus{Key: st.key, Status: StatusDone}, nil))
			}
		case "probe":
			var err error
			if rng.IntN(3) == 0 {
				err = errors.New("probe timed out")
			}
			c.probed(c.members[rng.IntN(len(c.members))], err)
		case "join":
			_, p, _ := c.join(addrs[rng.IntN(len(addrs))])
			take(p)
		case "leave":
			_, p, _ := c.leave(addrs[rng.IntN(len(addrs))])
			take(p)
		case "sweep":
			take(c.sweep())
		}
		check()
	}

	// The faults stop: every circuit closes on a good probe, and every
	// forward and wait is answered done.
	for _, b := range c.members {
		c.probed(b, nil)
	}
	for round := 0; c.pending > 0; round++ {
		if step, what = steps+round, "clean sweep"; round == 3 {
			fail("%d keys still live", c.pending)
		}
		take(c.sweep())
		for len(out) > 0 {
			f := out[0]
			out = out[1:]
			take(c.forwarded(f.b, f.group, acks(f.group, StatusDone), nil))
		}
		for _, st := range live() {
			take(c.waited(st, st.backend, done(st), nil))
		}
		check()
	}
	for key := range accepted {
		if !c.byKey[key].final() {
			fail("accepted key %s never finished", key)
		}
	}
	// A successor replaying the journal reaches the same membership.
	r := newCore(addrs[:3]...)
	r.replay(journal)
	if !slices.Equal(r.ring.Members(), c.ring.Members()) || r.epoch != c.epoch {
		fail("replay reached %v at epoch %d, want %v at %d", r.ring.Members(), r.epoch, c.ring.Members(), c.epoch)
	}
}
