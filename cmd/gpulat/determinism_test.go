package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/service"
)

// sameExports fails t when got's CSV or JSON export is not the same
// bytes as want's, quoting the first line that differs.
func sameExports(t *testing.T, what string, want, got *runner.ResultSet) {
	t.Helper()
	for format, write := range map[string]func(*runner.ResultSet, io.Writer) error{
		"CSV": (*runner.ResultSet).WriteCSV, "JSON": (*runner.ResultSet).WriteJSON,
	} {
		var w, g bytes.Buffer
		if err := errors.Join(write(want, &w), write(got, &g)); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(w.Bytes(), g.Bytes()) {
			continue
		}
		wl, gl := strings.Split(w.String(), "\n"), strings.Split(g.String(), "\n")
		i := 0
		for i < min(len(wl), len(gl))-1 && wl[i] == gl[i] {
			i++
		}
		t.Errorf("%s: %s line %d differs:\nwant: %s\ngot:  %s", what, format, i+1, wl[i], gl[i])
	}
}

// TestEngineDeterminismQuickGrid is the simulation kernel's and the
// runner's core contract over every section of bench-suite -quick: the
// CSV and JSON exports are the same bytes under either engine and at any
// worker count.
func TestEngineDeterminismQuickGrid(t *testing.T) {
	other := 1
	if runtime.GOMAXPROCS(0) == 1 {
		other = 8 // runner.New(0) is one worker here
	}
	for _, w := range []int{0, other} {
		sameExports(t, fmt.Sprintf("-engine=event -j %d", w), quickSuite(t, "tick", 0), quickSuite(t, "event", w))
	}
}

// TestCoRunDeterminism: the quick co-run grid (`corun -quick` at its
// default flags) exports the same bytes at 1 and 8 workers under either
// engine, so the event engine's multi-stream horizons merge exactly.
func TestCoRunDeterminism(t *testing.T) {
	want := quickCoRun(t, "tick", 1)
	for _, tc := range []struct {
		engine  string
		workers int
	}{{"tick", 8}, {"event", 1}, {"event", 8}} {
		sameExports(t, fmt.Sprintf("corun -engine=%s -j %d", tc.engine, tc.workers), want, quickCoRun(t, tc.engine, tc.workers))
	}
}

// quickCoRuns memoizes quickCoRun per engine and worker count.
var quickCoRuns = map[string]*runner.ResultSet{}

// quickCoRun is `corun -quick` at its default flags under engine on
// runner.New(workers).
func quickCoRun(t *testing.T, engine string, workers int) *runner.ResultSet {
	t.Helper()
	memo := fmt.Sprintf("%s/%d", engine, workers)
	if set, ok := quickCoRuns[memo]; ok {
		return set
	}
	jobs := corunJobs([]string{"GF100"}, [][2]string{{"pchase", "copy"}, {"gather", "copy"}},
		[]string{"shared", "spatial"}, runner.DefaultBaseSeed, true)
	quickCoRuns[memo] = runGrid(t, jobs, engine, workers)
	return quickCoRuns[memo]
}

// gate holds a backend's jobs until released, and closes started when
// the first one arrives: an event fired after <-started lands while that
// backend still holds live work.
type gate struct {
	started, open chan struct{}
	once, opened  sync.Once
}

func newGate() *gate { return &gate{started: make(chan struct{}), open: make(chan struct{})} }

func (g *gate) exec(ctx context.Context, job runner.Job) runner.Result {
	g.once.Do(func() { close(g.started) })
	<-g.open
	return runner.Execute(ctx, job)
}

func (g *gate) release() { g.opened.Do(func() { close(g.open) }) }

// newBackend is one `gpulat serve` station in process, over cacheDir (""
// = a fresh one), with its jobs held by g unless g is nil. The server
// and station close at cleanup.
func newBackend(t *testing.T, cacheDir string, g *gate) *httptest.Server {
	t.Helper()
	if cacheDir == "" {
		cacheDir = t.TempDir()
	}
	cache, err := service.OpenCache(cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cfg service.StationConfig
	if g != nil {
		cfg.Exec = g.exec
	}
	st := service.NewStation(cache, cfg)
	t.Cleanup(st.Close)
	srv := httptest.NewServer(service.NewServer(st, cache))
	t.Cleanup(srv.Close)
	if g != nil {
		t.Cleanup(g.release) // runs first: the server and station close unwedged
	}
	return srv
}

// newTier is `serve -backends` in process: a coordinator at serve's
// defaults, journaling to journal unless it is "", and a client of its
// HTTP handler.
func newTier(t *testing.T, journal string, backends ...*httptest.Server) (*service.Coordinator, *service.Client) {
	t.Helper()
	cfg := service.CoordinatorConfig{JournalPath: journal}
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.URL)
	}
	coord, err := service.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(service.NewServer(coord, nil))
	t.Cleanup(front.Close)
	return coord, service.NewClient(front.URL)
}

// run is one finished `submit -suite -quick`.
type run struct {
	set *runner.ResultSet
	err error
}

// submit starts `submit -suite -quick` through c in the background.
func submit(c *service.Client) <-chan run {
	done := make(chan run, 1)
	go func() {
		set, err := c.RunJobs(context.Background(), suiteJobs(true))
		if err == nil {
			err = set.Err()
		}
		done <- run{set, err}
	}()
	return done
}

// matchesDirect fails t unless r succeeded and exports the direct run's
// bytes.
func matchesDirect(t *testing.T, what string, r run) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("%s: %v", what, r.err)
	}
	sameExports(t, what, quickSuite(t, "event", 0), r.set)
}

// scrape sums a metric's samples on base's /metrics.
func scrape(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s, perr := metrics.Parse(body)
	if err := errors.Join(err, perr); err != nil {
		t.Fatal(err)
	}
	return s.Sum(name)
}

// TestServiceMatchesDirect is `submit -suite -quick` against `serve`:
// cold, over an empty cache, it exports the direct run's bytes; after a
// restart on the same cache directory it still does, answered by the
// cache alone, with nothing executed.
func TestServiceMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	for _, phase := range []string{"cold", "warm after a restart"} {
		t.Run(phase, func(t *testing.T) { // its cleanup stops the station
			client := service.NewClient(newBackend(t, dir, nil).URL)
			matchesDirect(t, phase, <-submit(client))
			stats, err := client.Statsz(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := int64(len(suiteJobs(true)))
			if phase != "cold" && (stats.Station.Executed != 0 || stats.Cache.Hits != n) {
				t.Errorf("warm run executed %d jobs with %d cache hits; want 0 and %d",
					stats.Station.Executed, stats.Cache.Hits, n)
			}
		})
	}
}

// TestShardedTierMatchesDirect is the sharded tier's contract: a
// coordinator over in-process backends exports the direct run's bytes
// whatever happens to the tier mid-grid. Each event fires once a gated
// backend has started a job, and each phase asserts that the event
// touched live work.
func TestShardedTierMatchesDirect(t *testing.T) {
	ctx := context.Background()
	t.Run("cold", func(t *testing.T) {
		coord, client := newTier(t, "", newBackend(t, "", nil), newBackend(t, "", nil))
		matchesDirect(t, "cold", <-submit(client))
		for _, b := range coord.Backends() {
			if b.Circuit != "closed" || b.Submitted == 0 {
				t.Errorf("backend %s: circuit %s after %d forwarded jobs; want closed and some", b.Addr, b.Circuit, b.Submitted)
			}
		}
	})

	t.Run("backend killed", func(t *testing.T) {
		g := newGate()
		b2 := newBackend(t, "", g)
		coord, client := newTier(t, "", newBackend(t, "", nil), b2)
		done := submit(client)
		<-g.started
		b2.Config.Close() // a SIGKILL: listener and connections gone, no drain
		matchesDirect(t, "backend killed mid-grid", <-done)
		if s := coord.Stats(); s.Rerouted == 0 {
			t.Errorf("nothing rerouted off the killed backend: %+v", s)
		}
		matchesDirect(t, "resubmitted after the kill", <-submit(client))
		circuit := func() string {
			for _, b := range coord.Backends() {
				if b.Addr == b2.URL {
					return b.Circuit
				}
			}
			return ""
		}
		for deadline := time.Now().Add(30 * time.Second); circuit() != "open"; time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the killed backend's circuit reads %q, want open", circuit())
			}
		}
	})

	t.Run("join then warm joiner", func(t *testing.T) {
		g := newGate()
		coord, client := newTier(t, "", newBackend(t, "", g))
		done := submit(client)
		<-g.started
		ch, err := client.JoinBackend(ctx, newBackend(t, "", nil).URL)
		g.release()
		if err != nil {
			t.Fatal(err)
		}
		if ch.Action != "join" || ch.Epoch != 2 || ch.Reassigned == 0 {
			t.Errorf("join mid-grid: %+v; want epoch 2 and live keys reassigned", ch)
		}
		matchesDirect(t, "join mid-grid", <-done)
		matchesDirect(t, "resubmitted after the join", <-submit(client))

		// A cold backend registers as `serve -join` does and is warmed
		// by cache transfer from the members that ran its keys.
		b3 := newBackend(t, "", nil)
		if _, err := client.JoinBackend(ctx, b3.Listener.Addr().String()); err != nil {
			t.Fatal(err)
		}
		stats, err := client.Statsz(ctx)
		bz, berr := client.Backendsz(ctx)
		if err := errors.Join(err, berr); err != nil {
			t.Fatal(err)
		}
		if stats.RingEpoch != 3 || stats.Station.HandoffTransferred == 0 {
			t.Errorf("warm joiner: epoch %d, %d results handed off; want epoch 3 and some",
				stats.RingEpoch, stats.Station.HandoffTransferred)
		}
		for _, b := range bz.Backends {
			if bz.Epoch != 3 || b.Share <= 0 {
				t.Errorf("backendsz at epoch %d: %s owns ring share %.3f", bz.Epoch, b.Addr, b.Share)
			}
		}
		if scrape(t, b3.URL, "gpulat_cache_transfer_in_total") == 0 ||
			scrape(t, client.Base, "gpulat_station_handoff_transferred_total") == 0 {
			t.Errorf("/metrics on the joiner or the coordinator counts no transfer: %+v", coord.Stats())
		}
	})

	t.Run("leave", func(t *testing.T) {
		g := newGate()
		b2 := newBackend(t, "", g)
		_, client := newTier(t, "", newBackend(t, "", nil), b2)
		done := submit(client)
		<-g.started
		ch, err := client.LeaveBackend(ctx, b2.URL)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Action != "leave" || ch.Members != 1 || ch.Reassigned == 0 {
			t.Errorf("leave mid-grid: %+v; want one member left and live keys reassigned", ch)
		}
		matchesDirect(t, "leave mid-grid", <-done)
		matchesDirect(t, "resubmitted after the leave", <-submit(client))
	})

	t.Run("coordinator crash", func(t *testing.T) {
		g := newGate()
		b1 := newBackend(t, "", g)
		journal := filepath.Join(t.TempDir(), "journal.jsonl")
		crashed, client := newTier(t, journal, b1)
		done := submit(client)
		<-g.started
		crashed.Close()
		<-done // fails: its coordinator is gone

		coord, client := newTier(t, journal, b1)
		g.release()
		if s := coord.Stats(); s.Replayed == 0 {
			t.Errorf("the restarted coordinator replayed no jobs: %+v", s)
		}
		matchesDirect(t, "after a journal replay", <-submit(client))
		matchesDirect(t, "resubmitted after the replay", <-submit(client))
	})
}
