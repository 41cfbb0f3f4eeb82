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
				st, _ := coord.Wait(context.Background(), job.Key(), 0)
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

	jobs := testJobs(24)
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
		if ringOwner(coord, job.Key()) == normalizeBackendAddr(b2.ts.URL) {
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

	jobs := testJobs(24)
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
		if err := errors.Join(j.Append(func() {}, extra), j.Close()); err != nil {
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

// TestJournalKeepsDecisionOrder: Joins and Leaves of one address race
// many times over. The journal holds them in the order they were
// decided, so a successor replaying it reaches the same members at the
// same epoch; appended out of order, a replayed leave would precede the
// join it followed, be refused, and leave the address in.
func TestJournalKeepsDecisionOrder(t *testing.T) {
	cfg := CoordinatorConfig{Backends: []string{"127.0.0.1:1"}, ProbeInterval: time.Hour,
		JournalPath: filepath.Join(t.TempDir(), "coordinator.jsonl")}
	coord := newCoordinator(t, cfg)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 300 {
				if g%2 == 0 {
					coord.Join(context.Background(), "127.0.0.1:2")
				} else {
					coord.Leave(context.Background(), "127.0.0.1:2")
				}
			}
		}()
	}
	wg.Wait()
	coord.Close()
	r := newCoordinator(t, cfg) // both quiescent: the writers are done, the probers sleep
	if !slices.Equal(r.ring.Members(), coord.ring.Members()) || r.epoch != coord.epoch {
		t.Fatalf("replay reached %v at epoch %d, want %v at %d", r.ring.Members(), r.epoch, coord.ring.Members(), coord.epoch)
	}
}

// TestMembershipRacesClose: Join and Leave racing Close are decided
// under the same lock as the closed flag, so every change that was
// reported is in the journal, the journal does not grow once Close has
// returned, and a call made after that is refused.
func TestMembershipRacesClose(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "coordinator.jsonl")
	coord := newCoordinator(t, CoordinatorConfig{Backends: []string{"127.0.0.1:1"}, ProbeInterval: time.Hour, JournalPath: path})
	var closed atomic.Bool
	var changes atomic.Int64
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				after := closed.Load()
				addr := fmt.Sprintf("127.0.0.1:%d", 2+g+4*(i/2))
				call := coord.Join
				if i%2 == 1 {
					call = coord.Leave
				}
				ch, err := call(ctx, addr)
				if after && !errors.Is(err, ErrStationClosed) {
					t.Errorf("%s of %s after Close returned: %v", ch.Action, addr, err)
				}
				if err != nil {
					return
				}
				changes.Add(1)
			}
		}()
	}
	eventually(t, "some membership changes", func() bool { return changes.Load() >= 40 })
	coord.Close()
	info, err := os.Stat(path)
	closed.Store(true)
	wg.Wait()
	if after, serr := os.Stat(path); errors.Join(err, serr) != nil || after.Size() != info.Size() {
		t.Fatalf("journal grew from %d bytes after Close returned (%v)", info.Size(), errors.Join(err, serr))
	}
	j, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(records) != int(changes.Load()) {
		t.Fatalf("journal holds %d records for %d reported changes", len(records), changes.Load())
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
		if job = testJob(i); ringOwner(coord, job.Key()) == normalizeBackendAddr(doomed.ts.URL) {
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

// ringOwner is key's owner on coord's ring, ignoring circuit state.
func ringOwner(coord *Coordinator, key runner.JobKey) string {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	owner, _ := coord.ring.Owner(key)
	return owner
}

// ownedBy returns a key from jobs that the ring places on addr.
func ownedBy(t *testing.T, coord *Coordinator, jobs []runner.Job, addr string) runner.JobKey {
	t.Helper()
	for _, job := range jobs {
		if ringOwner(coord, job.Key()) == normalizeBackendAddr(addr) {
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

	jobs := testJobs(60)
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
