package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// gauges are a table's states counted by status, and those whose result
// is not final.
type gauges struct{ Queued, Running, Done, Failed, Pending int }

// kept is what the table counted as it went.
func kept(tbl *jobs) gauges {
	s := tbl.stats
	return gauges{s.Queued, s.Running, s.Done, s.Failed, tbl.pending}
}

// recount is the same by a scan of every state in the table: the oracle
// for kept.
func recount(tbl *jobs) (g gauges) {
	for _, st := range tbl.byKey {
		switch st.status {
		case StatusRunning:
			g.Running++
		case StatusDone:
			g.Done++
		case StatusFailed:
			g.Failed++
		default:
			g.Queued++
		}
		if !st.final() {
			g.Pending++
		}
	}
	return g
}

// assertGauges fails tb when the table's counts differ from a recount.
func assertGauges(tb testing.TB, tbl *jobs) {
	tb.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	if k, r := kept(tbl), recount(tbl); k != r {
		tb.Errorf("gauges %+v; a recount of the table gives %+v", k, r)
	}
}

// newStation builds a station that closes when the test ends and then
// has its gauges checked against a recount.
func newStation(tb testing.TB, cache *Cache, cfg StationConfig) *Station {
	tb.Helper()
	st := NewStation(cache, cfg)
	tb.Cleanup(func() { assertGauges(tb, &st.jobs) })
	tb.Cleanup(st.Close)
	return st
}

// newCoordinator is newStation for the sharded tier.
func newCoordinator(tb testing.TB, cfg CoordinatorConfig) *Coordinator {
	tb.Helper()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { assertGauges(tb, &coord.jobs) })
	tb.Cleanup(coord.Close)
	return coord
}

// TestJobTableGauges drives every table write — add, replacing a failed
// state (failed by fail, and finished with a failed result), set, finish
// and failLive — on each tier's table, and checks the gauges after each
// against a recount and the expected counts.
func TestJobTableGauges(t *testing.T) {
	tiers := map[string]*jobs{
		"station":     &newStation(t, nil, StationConfig{Workers: 1}).jobs,
		"coordinator": &newCoordinator(t, CoordinatorConfig{ProbeInterval: time.Hour}).jobs,
	}
	for name, tbl := range tiers {
		t.Run(name, func(t *testing.T) {
			tbl.mu.Lock()
			defer tbl.mu.Unlock()
			step := func(what string, queued, running, done, failed, pending int) {
				t.Helper()
				want := gauges{queued, running, done, failed, pending}
				if k, r := kept(tbl), recount(tbl); k != r || r != want {
					t.Fatalf("%s: gauges %+v, recount %+v, want %+v", what, k, r, want)
				}
			}
			k1, k2, k3 := testJob(1).Key(), testJob(2).Key(), testJob(3).Key()
			a := tbl.add(k1, testJob(1))
			step("add", 1, 0, 0, 0, 1)
			tbl.set(a, StatusRunning)
			step("set running", 0, 1, 0, 0, 1)
			tbl.fail(a, "boom")
			step("finish failed", 0, 0, 0, 1, 0)
			if _, ok, err := tbl.attach(k1); ok || err != nil {
				t.Fatalf("a failed key attached: %v, %v", ok, err)
			}
			a = tbl.add(k1, testJob(1))
			step("replace a final failed state", 1, 0, 0, 0, 1)

			b := tbl.add(k2, testJob(2))
			tbl.set(b, StatusRunning)
			tbl.finish(b, runner.Result{Job: testJob(2), Err: "simulation failed"})
			step("finish with a failed result", 1, 0, 0, 1, 1)
			if _, ok, err := tbl.attach(k2); ok || err != nil {
				t.Fatalf("a failed key attached: %v, %v", ok, err)
			}
			tbl.add(k2, testJob(2))
			step("replace a finished failure", 2, 0, 0, 0, 2)
			if !b.final() || b.status != StatusFailed || b.result.Err != "simulation failed" {
				t.Fatalf("replaced state left final=%v status=%s err=%q", b.final(), b.status, b.result.Err)
			}

			tbl.finish(a, testResult(testJob(1)))
			step("finish done", 1, 0, 1, 0, 1)
			tbl.set(a, StatusRunning)
			tbl.finish(a, runner.Result{Err: "late"})
			step("writes after finish", 1, 0, 1, 0, 1)

			tbl.add(k3, testJob(3))
			tbl.failLive("closing")
			step("failLive", 0, 0, 1, 2, 0)
			if tbl.byKey[k1].result.Failed() {
				t.Fatal("failLive rewrote a final result")
			}
		})
	}
}

// TestRefusedBatchAfterCloseCountsOnce: a call refused because the tier
// has closed is one rejection, however many jobs it carried, on both
// tiers.
func TestRefusedBatchAfterCloseCountsOnce(t *testing.T) {
	tiers := map[string]interface {
		JobService
		Close()
	}{
		"station":     newStation(t, nil, StationConfig{Workers: 1}),
		"coordinator": newCoordinator(t, CoordinatorConfig{ProbeInterval: time.Hour}),
	}
	batch := []runner.Job{testJob(0), testJob(1), testJob(2)}
	for name, tier := range tiers {
		tier.Close()
		tickets, err := tier.SubmitMany(context.Background(), batch)
		if !errors.Is(err, ErrStationClosed) || len(tickets) != 0 {
			t.Errorf("%s: SubmitMany after Close = %d tickets, %v", name, len(tickets), err)
		}
		if s := tier.Stats(); s.Rejected != 1 || s.Submitted != 0 {
			t.Errorf("%s: a refused batch of %d counted %+v, want one rejection", name, len(batch), s)
		}
	}
}
