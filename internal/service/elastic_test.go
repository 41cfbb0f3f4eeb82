package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// newCachedBackend is newTestBackend with a real persistent cache — the
// shape the cache-warm handoff needs on both ends.
func newCachedBackend(t *testing.T, block chan struct{}) (*testBackend, *Cache) {
	t.Helper()
	cache, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingExec{block: block}
	station := newStation(t, cache, StationConfig{Workers: 2, Exec: ce.exec})
	ts := httptest.NewServer(NewServer(station, cache))
	t.Cleanup(ts.Close)
	return &testBackend{ts: ts, station: station, execs: ce}, cache
}

// releaser returns a close-once for a wedge channel and registers it as
// a cleanup. Call it AFTER the backends using the channel are created:
// cleanups run LIFO, so the channel is guaranteed closed before
// station.Close() waits on wedged workers — even when the test Fatalfs
// before reaching its own release point.
func releaser(t *testing.T, ch chan struct{}) func() {
	t.Helper()
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return release
}

func waitAllDone(t *testing.T, coord *Coordinator, jobs []runner.Job) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, job := range jobs {
		for {
			res, ok := coord.Result(context.Background(), job.Key())
			if ok {
				if res.Failed() {
					t.Fatalf("job %s failed: %s", job.Key(), res.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				st, _ := coord.Status(job.Key())
				t.Fatalf("job %s stuck in %q: %+v", job.Key(), st, coord.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestCoordinatorJoinWarmHandsOffCache is the scale-up contract: a
// backend joining mid-life bumps the epoch, takes ownership of ≈1/N of
// the keys, and receives those keys' cached results via the cache
// transfer endpoints — so re-running the grid recomputes nothing.
func TestCoordinatorJoinWarmHandsOffCache(t *testing.T) {
	b1, _ := newCachedBackend(t, nil)
	b2, cache2 := newCachedBackend(t, nil)
	coord := quickCoordinator(t, []string{b1.ts.URL})

	jobs := make([]runner.Job, 24)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	if _, err := coord.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	waitAllDone(t, coord, jobs)
	if coord.RingEpoch() != 1 {
		t.Fatalf("initial epoch = %d", coord.RingEpoch())
	}

	ch, err := coord.Join(context.Background(), b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Changed || ch.Epoch != 2 || ch.Members != 2 || ch.Action != "join" {
		t.Fatalf("join change: %+v", ch)
	}
	if ch.MovedKeys == 0 || ch.MovedKeys >= len(jobs) {
		t.Fatalf("join moved %d of %d keys — want a proper fraction", ch.MovedKeys, len(jobs))
	}
	// Every moved key was done and cached on b1, so every one must have
	// transferred — zero recompute is the point of the warm handoff.
	if ch.Transferred != ch.MovedKeys {
		t.Fatalf("transferred %d of %d moved keys", ch.Transferred, ch.MovedKeys)
	}
	if ch.Reassigned != 0 {
		t.Fatalf("join of a finished grid reassigned %d live keys", ch.Reassigned)
	}
	// The joiner's cache must now answer its newly-owned keys directly.
	owned := 0
	for _, job := range jobs {
		if owner, _ := coord.pool.Ring().Owner(job.Key()); owner == normalizeBackendAddr(b2.ts.URL) {
			owned++
			if _, ok := cache2.Get(job.Key()); !ok {
				t.Fatalf("moved key %s not in the joiner's cache", job.Key())
			}
		}
	}
	if owned != ch.MovedKeys {
		t.Fatalf("joiner owns %d keys, change reported %d moved", owned, ch.MovedKeys)
	}
	if b2.execs.count() != 0 {
		t.Fatalf("joiner executed %d jobs during handoff — handoff must transfer, not recompute", b2.execs.count())
	}

	// Re-joining is idempotent: no epoch bump, nothing moved.
	again, err := coord.Join(context.Background(), b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if again.Changed || again.Epoch != 2 || again.MovedKeys != 0 {
		t.Fatalf("re-join not idempotent: %+v", again)
	}

	s := coord.Stats()
	if s.HandoffKeys != int64(ch.MovedKeys) || s.HandoffTransferred != int64(ch.Transferred) {
		t.Fatalf("handoff counters drifted: %+v vs change %+v", s, ch)
	}
	// Ring shares at the new epoch are visible per backend and sum to 1.
	sum := 0.0
	for _, bs := range coord.Backends() {
		if bs.Share <= 0 || bs.Share >= 1 {
			t.Fatalf("backend %s share %.4f out of range", bs.Addr, bs.Share)
		}
		sum += bs.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %.4f", sum)
	}
}

// TestCoordinatorLeaveDrainsToSurvivors is the scale-down contract:
// leaving hands the leaver's cached results to the new owners and
// re-forwards its live keys, and the guard rails hold (unknown → 404
// semantics, last backend → refused).
func TestCoordinatorLeaveDrainsToSurvivors(t *testing.T) {
	b1, cache1 := newCachedBackend(t, nil)
	b2, _ := newCachedBackend(t, nil)
	coord := quickCoordinator(t, []string{b1.ts.URL, b2.ts.URL})

	jobs := make([]runner.Job, 24)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	if _, err := coord.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	waitAllDone(t, coord, jobs)

	ch, err := coord.Leave(context.Background(), b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Changed || ch.Epoch != 2 || ch.Members != 1 || ch.Action != "leave" {
		t.Fatalf("leave change: %+v", ch)
	}
	if ch.MovedKeys == 0 || ch.Transferred != ch.MovedKeys {
		t.Fatalf("leave transferred %d of %d moved keys", ch.Transferred, ch.MovedKeys)
	}
	// The survivor's cache now answers every key.
	for _, job := range jobs {
		if _, ok := cache1.Get(job.Key()); !ok {
			t.Fatalf("key %s missing from the survivor's cache after drain", job.Key())
		}
	}

	if _, err := coord.Leave(context.Background(), "127.0.0.1:59999"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("leave of non-member = %v, want ErrUnknownBackend", err)
	}
	if _, err := coord.Leave(context.Background(), b1.ts.URL); !errors.Is(err, ErrLastBackend) {
		t.Fatalf("leave of last backend = %v, want ErrLastBackend", err)
	}
}

// TestCoordinatorLeaveReassignsLiveKeys: leaving while its keys are
// still queued/running re-forwards them to survivors without charging
// anyone's reroute budget, and the grid completes.
func TestCoordinatorLeaveReassignsLiveKeys(t *testing.T) {
	release := make(chan struct{})
	b1, _ := newCachedBackend(t, nil)
	b2, _ := newCachedBackend(t, release) // b2's executions wedge until released
	unwedge := releaser(t, release)
	// No prober: on a loaded host a 20 ms probe can time out twice and
	// reroute b2's keys before the leave has any to drain.
	coord := quietCoordinator(t, b1.ts.URL, b2.ts.URL)

	jobs := make([]runner.Job, 24)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	if _, err := coord.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	ch, err := coord.Leave(context.Background(), b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Reassigned == 0 {
		t.Fatalf("leave mid-grid reassigned nothing: %+v", ch)
	}
	// b2's wedged copies never release; the reassigned keys must finish
	// on b1 regardless.
	waitAllDone(t, coord, jobs)
	unwedge()
	if s := coord.Stats(); s.Rerouted != 0 {
		t.Fatalf("drain charged the reroute budget: %+v", s)
	}
}

// TestCoordinatorJournalRecovery is the crash contract: a coordinator
// killed mid-grid is restarted against its journal and the grid
// completes — no client resubmission, no lost keys.
func TestCoordinatorJournalRecovery(t *testing.T) {
	release := make(chan struct{})
	b1, _ := newCachedBackend(t, release)
	unwedge := releaser(t, release)
	journal := filepath.Join(t.TempDir(), "wal", "coordinator.jsonl")

	cfg := CoordinatorConfig{
		Backends:      []string{b1.ts.URL},
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
		JournalPath:   journal,
	}
	coord1 := newCoordinator(t, cfg)
	jobs := make([]runner.Job, 10)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	if _, err := coord1.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// "Crash": Close stops the prober but leaves the journal on disk.
	coord1.Close()
	unwedge()

	coord2 := newCoordinator(t, cfg)
	if got := coord2.Stats().Replayed; got != int64(len(jobs)) {
		t.Fatalf("replayed %d jobs, want %d", got, len(jobs))
	}
	// The successor drives the grid to done on its own — the replayed
	// keys re-forward, the backend dedupes, nobody resubmits.
	waitAllDone(t, coord2, jobs)
	for _, job := range jobs {
		res, _ := coord2.Result(context.Background(), job.Key())
		want := testResult(job)
		if len(res.Metrics) != len(want.Metrics) || res.Metrics[0] != want.Metrics[0] {
			t.Fatalf("replayed result drifted for %s: %+v", job.Key(), res)
		}
	}
}

// TestJournalAppendAfterTornTail cuts a journal at every byte offset k,
// as a death mid-Append would, then opens it, appends one record and
// replays: the replay must be exactly the records whose line ends
// within the first k bytes, then the new one. A torn tail left in the
// file would swallow the acknowledged record appended after it.
func TestJournalAppendAfterTornTail(t *testing.T) {
	jobs := []runner.Job{testJob(0), testJob(1), testJob(2)}
	recs := []JournalRecord{
		{T: journalJob, Key: jobs[0].Key(), Job: &jobs[0]},
		{T: journalJoin, Addr: "127.0.0.1:1", Epoch: 2},
		{T: journalJob, Key: jobs[1].Key(), Job: &jobs[1]},
		{T: journalLeave, Addr: "127.0.0.1:1", Epoch: 3},
	}
	extra := JournalRecord{T: journalJob, Key: jobs[2].Key(), Job: &jobs[2]}
	var full []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		full = append(append(full, line...), '\n')
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	open := func() (*Journal, []JournalRecord) {
		j, replayed, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return j, replayed
	}
	for k := range len(full) + 1 {
		if err := os.WriteFile(path, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		j, _ := open()
		if err := errors.Join(j.Append(extra), j.Close()); err != nil {
			t.Fatal(err)
		}
		j, got := open()
		j.Close()
		if want := append(slices.Clone(recs[:bytes.Count(full[:k], []byte("\n"))]), extra); !reflect.DeepEqual(got, want) {
			t.Fatalf("journal cut at byte %d of %d: replayed %d records, want the %d complete ones and the one appended after the cut",
				k, len(full), len(got), len(want)-1)
		}
	}
}

// TestMembershipAndCacheHTTPSurface drives join/leave and the cache
// transfer endpoints over HTTP, including the error mapping (non-member
// → 404, last backend → 409, station → 404 for all of them).
func TestMembershipAndCacheHTTPSurface(t *testing.T) {
	b1, _ := newCachedBackend(t, nil)
	b2, _ := newCachedBackend(t, nil)
	coord := quickCoordinator(t, []string{b1.ts.URL})
	front := httptest.NewServer(NewServer(coord, nil))
	defer front.Close()
	client := NewClient(front.URL)
	ctx := context.Background()

	jobs := []runner.Job{testJob(0), testJob(1), testJob(2), testJob(3)}
	if _, err := client.RunJobs(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	ch, err := client.JoinBackend(ctx, b2.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Changed || ch.Epoch != 2 {
		t.Fatalf("HTTP join: %+v", ch)
	}
	bz, err := client.Backendsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bz.Epoch != 2 || len(bz.Backends) != 2 {
		t.Fatalf("backendsz after join: %+v", bz)
	}
	stz, err := client.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stz.RingEpoch != 2 || len(stz.Backends) != 2 {
		t.Fatalf("statsz does not mirror the pool view: epoch=%d backends=%d", stz.RingEpoch, len(stz.Backends))
	}

	if _, err := client.LeaveBackend(ctx, "127.0.0.1:59999"); !apiCode(err, http.StatusNotFound) {
		t.Fatalf("leave non-member over HTTP = %v, want 404", err)
	}
	if _, err := client.LeaveBackend(ctx, b2.ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := client.LeaveBackend(ctx, b1.ts.URL); !apiCode(err, http.StatusConflict) {
		t.Fatalf("leave last backend over HTTP = %v, want 409", err)
	}

	// A plain station refuses the whole membership/cache-pull surface.
	stationClient := NewClient(b1.ts.URL)
	if _, err := stationClient.JoinBackend(ctx, "x:1"); !apiCode(err, http.StatusNotFound) {
		t.Fatalf("station join = %v, want 404", err)
	}
	// The coordinator front (no cache) refuses cache transfers.
	if _, err := client.CacheEntry(ctx, jobs[0].Key()); !apiCode(err, http.StatusNotFound) {
		t.Fatalf("cacheless cache fetch = %v, want 404", err)
	}
	// A backend serves its cached entries to peers.
	e, err := stationClient.CacheEntry(ctx, ownedBy(t, coord, jobs, b1.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if e.Job.Key() != e.Key {
		t.Fatalf("served entry not content-addressed: %+v", e)
	}
}

// TestCoordinatorFailsOverMidWait: the backend holding a client's
// long-poll dies with the job wedged on it. The waiter itself observes
// the death — no next poll, no prober round — re-places the key, and the
// same RunJobs call completes on the survivor.
func TestCoordinatorFailsOverMidWait(t *testing.T) {
	wedge := make(chan struct{})
	survivor := newTestBackend(t, nil)
	doomed := newTestBackend(t, wedge) // never runs anything to completion
	releaser(t, wedge)
	coord := quickCoordinator(t, []string{survivor.ts.URL, doomed.ts.URL})
	front := httptest.NewServer(NewServer(coord, nil))
	t.Cleanup(front.Close)

	var job runner.Job
	for i := 0; ; i++ {
		if job = testJob(i); coord.pool.Owner(job.Key()).Addr() == normalizeBackendAddr(doomed.ts.URL) {
			break
		}
	}
	type outcome struct {
		set *runner.ResultSet
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		set, err := NewClient(front.URL).RunJobs(context.Background(), []runner.Job{job})
		done <- outcome{set, err}
	}()
	held := doomed.ts.Config.Handler.(*Server).metrics.waiting
	eventually(t, "the client's wait to reach the owning backend", func() bool { return held.Value() == 1 })
	doomed.ts.CloseClientConnections()
	doomed.ts.Close()

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		want := testResult(job)
		if r := o.set.Results[0]; r.Failed() || len(r.Metrics) == 0 || r.Metrics[0] != want.Metrics[0] {
			t.Fatalf("result after mid-wait failover: %+v", r)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("waiter never completed after its backend died: %+v", coord.Stats())
	}
	if survivor.execs.count() != 1 || coord.Stats().Rerouted == 0 {
		t.Fatalf("survivor ran %d jobs, stats %+v; want the job re-placed there", survivor.execs.count(), coord.Stats())
	}
}

// ownedBy returns a key from jobs that the ring places on addr.
func ownedBy(t *testing.T, coord *Coordinator, jobs []runner.Job, addr string) runner.JobKey {
	t.Helper()
	for _, job := range jobs {
		if owner, _ := coord.pool.Ring().Owner(job.Key()); owner == normalizeBackendAddr(addr) {
			return job.Key()
		}
	}
	t.Fatalf("no key owned by %s", addr)
	return ""
}

func apiCode(err error, code int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// TestNoDuplicateExecutionWithoutFailure: while every backend is alive
// the tier runs each job exactly once, however lopsided the queues — one
// backend wedged behind its whole share while the other idles through
// many probe rounds. Moving a queued key to the idle backend would not
// help: a station has no cancel, so the wedged one still runs its copy.
func TestNoDuplicateExecutionWithoutFailure(t *testing.T) {
	wedge := make(chan struct{})
	b1, _ := newCachedBackend(t, wedge) // every execution blocks
	unwedge := releaser(t, wedge)
	b2, _ := newCachedBackend(t, nil)
	coord := quickCoordinator(t, []string{b1.ts.URL, b2.ts.URL})

	jobs := make([]runner.Job, 60)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	if _, err := coord.SubmitMany(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	eventually(t, "20 probe rounds over the lopsided pool", func() bool {
		for _, b := range coord.Backends() {
			if b.Probes < 20 {
				return false
			}
		}
		return true
	})
	unwedge()
	waitAllDone(t, coord, jobs)
	if n := b1.execs.count() + b2.execs.count(); n != len(jobs) {
		t.Fatalf("pool executed %d simulations for %d jobs (b1=%d b2=%d)", n, len(jobs), b1.execs.count(), b2.execs.count())
	}
	if s := coord.Stats(); s.Rerouted != 0 {
		t.Fatalf("keys moved with no backend failing: %+v", s)
	}
}

// newFailingBackend is a live backend whose POST /v1/jobs answers 500
// for its first `failures` calls (negative: always); everything else,
// health probes included, reaches a real station. It returns the base
// URL, the POST counter and the execution counter.
func newFailingBackend(t *testing.T, failures int64) (string, *atomic.Int64, *countingExec) {
	t.Helper()
	ce := &countingExec{}
	station := newStation(t, nil, StationConfig{Workers: 2, Exec: ce.exec})
	inner := NewServer(station, nil)
	posts := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			if n := posts.Add(1); failures < 0 || n <= failures {
				writeError(w, http.StatusInternalServerError, "broken on purpose")
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, posts, ce
}

// TestPlaceRule pins what it costs a key to be given a backend, one row
// per reason it needs one (see Coordinator.place). Every row but the
// first runs on a quiet coordinator.
func TestPlaceRule(t *testing.T) {
	ctx := context.Background()
	state := func(coord *Coordinator, key runner.JobKey) (st *jobState, backend *Backend, reroutes int) {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		st = coord.byKey[key]
		return st, st.backend, st.reroutes
	}
	reroutedAway := func(coord *Coordinator) (n int64) {
		for _, b := range coord.Backends() {
			n += b.ReroutedAway
		}
		return n
	}

	// Waits for a backend, then costs nothing.
	t.Run("never placed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "coordinator.jsonl")
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []runner.Job{testJob(0), testJob(1), testJob(2)}
		for i := range jobs {
			if err := j.Append(JournalRecord{T: journalJob, Key: jobs[i].Key(), Job: &jobs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		coord := newCoordinator(t, CoordinatorConfig{ProbeInterval: 20 * time.Millisecond, JournalPath: path})
		coord.sweepStranded() // an empty pool: nothing to place on, nothing fails
		if s := coord.Stats(); s.Replayed != 3 || s.Queued != 3 || s.Failed != 0 {
			t.Fatalf("replay into an empty pool: %+v", s)
		}
		// The pool's Join, not the coordinator's: that one hands an
		// empty ring's keys to the joiner itself, and the point here is
		// that the sweep does.
		b1 := newTestBackend(t, nil)
		coord.pool.Join(b1.ts.URL)
		waitAllDone(t, coord, jobs)
		for _, job := range jobs {
			if _, _, reroutes := state(coord, job.Key()); reroutes != 0 {
				t.Fatalf("first placement of %s spent %d reroutes", job.Key(), reroutes)
			}
		}
		if s := coord.Stats(); s.Rerouted != 0 || b1.execs.count() != 3 {
			t.Fatalf("stats %+v, joiner ran %d of 3", s, b1.execs.count())
		}
	})
	// Drains for free; fails only when every survivor is down.
	t.Run("backend left", func(t *testing.T) {
		dead := httptest.NewServer(nil)
		dead.Close()
		wedge := make(chan struct{})
		b2 := newTestBackend(t, wedge)
		b3 := newTestBackend(t, wedge)
		releaser(t, wedge)
		// No prober: the dead member's circuit is opened here, and no
		// live member's can open.
		coord := quietCoordinator(t, dead.URL, b2.ts.URL, b3.ts.URL)
		coord.pool.ByAddr(dead.URL).reportFailure(1, errors.New("connection refused"), true)

		jobs := make([]runner.Job, 24)
		for i := range jobs {
			jobs[i] = testJob(i)
		}
		if _, err := coord.SubmitMany(ctx, jobs); err != nil {
			t.Fatal(err)
		}
		ch, err := coord.Leave(ctx, b2.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		s := coord.Stats()
		if ch.Reassigned == 0 || s.Failed != 0 || s.Rerouted != 0 || reroutedAway(coord) != 0 {
			t.Fatalf("drain to a live survivor: change %+v, stats %+v, rerouted away %d", ch, s, reroutedAway(coord))
		}
		for _, job := range jobs {
			if _, b, reroutes := state(coord, job.Key()); b.Addr() != normalizeBackendAddr(b3.ts.URL) || reroutes != 0 {
				t.Fatalf("key %s on %s after %d reroutes, want the live survivor for free", job.Key(), b.Addr(), reroutes)
			}
		}
		// Now the only survivor is the one whose circuit is open.
		ch, err = coord.Leave(ctx, b3.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if s := coord.Stats(); ch.Reassigned != 0 || s.Failed != len(jobs) || s.Rerouted != 0 {
			t.Fatalf("drain with every survivor down: change %+v, stats %+v", ch, s)
		}
		for _, job := range jobs {
			if res, ok := coord.Result(ctx, job.Key()); !ok || res.Err != ErrNoBackends.Error() {
				t.Fatalf("key %s: %+v, %v; want ErrNoBackends", job.Key(), res, ok)
			}
		}
	})
	// One reroute a hop, terminal at the bound.
	t.Run("backend failed", func(t *testing.T) {
		u1, posts1, _ := newFailingBackend(t, -1)
		u2, posts2, _ := newFailingBackend(t, -1)
		coord := quietCoordinator(t, u1, u2)
		job := testJob(0)
		if _, _, err := coord.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
		res, ok := coord.Result(ctx, job.Key())
		if want := fmt.Sprintf("still unplaced after %d reroutes", rerouteBudget); !ok || !strings.Contains(res.Err, want) {
			t.Fatalf("result %+v, %v; want %q", res, ok, want)
		}
		// The first forward plus one per hop, each hop off a different
		// backend than it lands on.
		if s, posts := coord.Stats(), posts1.Load()+posts2.Load(); s.Rerouted != rerouteBudget || posts != rerouteBudget+1 || reroutedAway(coord) != rerouteBudget {
			t.Fatalf("stats %+v, %d forwards, %d rerouted away; want %d hops", s, posts, reroutedAway(coord), rerouteBudget)
		}
	})
	// The sole routable backend is retried even when it is avoid.
	t.Run("sole survivor", func(t *testing.T) {
		u, posts, execs := newFailingBackend(t, 1)
		coord := quietCoordinator(t, u)
		job := testJob(0)
		if _, _, err := coord.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
		waitAllDone(t, coord, []runner.Job{job})
		if s := coord.Stats(); s.Rerouted != 1 || reroutedAway(coord) != 0 || posts.Load() != 2 || execs.count() != 1 {
			t.Fatalf("stats %+v, rerouted away %d, %d forwards, %d runs", s, reroutedAway(coord), posts.Load(), execs.count())
		}
	})
	// One failure, many reporters: the key moves once.
	t.Run("concurrent reporters", func(t *testing.T) {
		b1 := newTestBackend(t, nil)
		b2 := newTestBackend(t, nil)
		coord := quietCoordinator(t, b1.ts.URL, b2.ts.URL)
		job := testJob(0)
		if _, _, err := coord.Submit(ctx, job); err != nil {
			t.Fatal(err)
		}
		st, from, _ := state(coord, job.Key())
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !coord.proxyFailed(ctx, st, from, errors.New("connection reset")) {
					t.Error("a transport failure was not treated as one")
				}
			}()
		}
		wg.Wait()
		_, now, reroutes := state(coord, job.Key())
		if s := coord.Stats(); s.Rerouted != 1 || reroutes != 1 || now == from || reroutedAway(coord) != 1 {
			t.Fatalf("stats %+v, %d reroutes, rerouted away %d, moved=%v", s, reroutes, reroutedAway(coord), now != from)
		}
		waitAllDone(t, coord, []runner.Job{job})
	})
}
