package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpulat/internal/runner"
)

// TestExitCodeClassification pins the CLI contract main applies to
// every subcommand error: usage errors exit 2, runtime failures exit 1.
func TestExitCodeClassification(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Errorf("nil → %d, want 0", got)
	}
	if got := exitCode(usagef("bad flag")); got != 2 {
		t.Errorf("usage error → %d, want 2", got)
	}
	if got := exitCode(os.ErrNotExist); got != 1 {
		t.Errorf("runtime error → %d, want 1", got)
	}
	if got := exitCode(errFlagReported); got != 2 {
		t.Errorf("flag-reported error → %d, want 2", got)
	}
}

// TestUnknownCommandsExitTwo: a name that is not a command — the retired
// "loadcurve" spelling of load-curve and the retired simulator-throughput
// command (the bench/ module measures the simulator now) among them —
// exits 2 before anything runs, as does an empty command line.
func TestUnknownCommandsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"loadcurve"}, {"bench-kernel"}, {"no-such-command"}, {}} {
		if got := dispatch(args); got != 2 {
			t.Errorf("gpulat %q: exit %d, want 2", args, got)
		}
	}
}

// TestCommandLineExitCodes runs whole command lines through dispatch, as
// main does: plain `list` exits 0, and an unknown kernel is a runtime
// failure, exit 1.
func TestCommandLineExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"list"}, 0},
		{[]string{"simrun", "-kernel", "no-such-kernel"}, 1},
	} {
		if got := dispatch(tc.args); got != tc.want {
			t.Errorf("gpulat %q: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestCoRunUsageErrorsExitTwo covers the corun bad-invocation paths:
// every axis typo must classify as a usage error (exit 2) before any
// simulation starts.
func TestCoRunUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"bad kernel":     {"-pairs", "no-such-kernel:copy"},
		"bad kernel b":   {"-pairs", "gather:no-such-kernel"},
		"malformed pair": {"-pairs", "gather"},
		"bad placement":  {"-placements", "diagonal"},
		"bad arch":       {"-archs", "RTX9090"},
		"bad engine":     {"-engine", "warp9"},
		"json and csv":   {"-json", "-csv"},
	} {
		err := cmdCoRun(args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%s: exit %d, want 2 (%v)", name, got, err)
		}
	}
}

// TestBenchSuiteUsageErrorsExitTwo covers bench-suite's bad-invocation
// paths.
func TestBenchSuiteUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"bad engine":   {"-engine", "tachyon"},
		"json and csv": {"-json", "-csv"},
		"bad flag":     {"-definitely-not-a-flag"},
	} {
		err := cmdBenchSuite(args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%s: exit %d, want 2 (%v)", name, got, err)
		}
	}
}

// TestSubmitUsageErrorsExitTwo covers the service client's
// bad-invocation paths (no server needed: they fail before any I/O).
func TestSubmitUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"json and csv":   {"-json", "-csv"},
		"suite and jobs": {"-suite", "-jobs", "x.json"},
		"nothing to do":  {"-quiet"},
	} {
		err := cmdSubmit(args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%s: exit %d, want 2 (%v)", name, got, err)
		}
	}
}

// TestServeCoordinatorRejectsStationFlags covers serve's coordinator
// mode refusing station-only flags (exit 2, before any network I/O):
// caches, workers and engines belong to the backends.
func TestServeCoordinatorRejectsStationFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"engine":    {"-backends", "127.0.0.1:1", "-engine", "tick"},
		"jobs":      {"-backends", "127.0.0.1:1", "-j", "4"},
		"cache dir": {"-backends", "127.0.0.1:1", "-cache-dir", "/tmp/x"},
	} {
		err := cmdServe(args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%s: exit %d, want 2 (%v)", name, got, err)
		}
	}
}

// TestServeJoinRegisters: the registration loop of `serve -join` makes
// the backend a member of the coordinator's pool, and it ends with its
// context.
func TestServeJoinRegisters(t *testing.T) {
	_, client := newTier(t, "")
	idle := http.DefaultTransport.(*http.Transport)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go register(ctx, client, client.Base, "127.0.0.1:1", true)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		bz, err := client.Backendsz(context.Background())
		if err == nil && bz.Epoch == 2 && len(bz.Backends) == 1 && bz.Backends[0].Addr == "http://127.0.0.1:1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backendsz never listed the registered backend at epoch 2: %+v, %v", bz, err)
		}
	}
	cancel()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		idle.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the registration loop's context ended, %d before it started", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestParFlagIsGone: a device is stepped by one goroutine, so the width
// flag every simulating subcommand used to take is now an unknown flag
// (exit 2), not a silently ignored one.
func TestParFlagIsGone(t *testing.T) {
	for name, cmd := range map[string]func([]string) error{
		"simrun": cmdSimRun, "corun": cmdCoRun, "bench-suite": cmdBenchSuite, "serve": cmdServe,
	} {
		if got := exitCode(cmd([]string{"-par", "2"})); got != 2 {
			t.Errorf("%s -par 2: exit %d, want 2", name, got)
		}
	}
}

// TestSubmitShardFlagIsGone: the coordinator's ring is the one way a key
// is placed by hash, so client-side `-shard i/n` partitioning is an
// unknown flag (exit 2) rather than a second placement rule.
func TestSubmitShardFlagIsGone(t *testing.T) {
	if got := exitCode(cmdSubmit([]string{"-shard", "0/2", "-suite"})); got != 2 {
		t.Errorf("submit -shard 0/2: exit %d, want 2", got)
	}
}

// TestSimRunTinyBFSGraphExitsOne: a BFS graph too small for the
// generator is a runtime error (exit 1) with a message, not a panic.
func TestSimRunTinyBFSGraphExitsOne(t *testing.T) {
	err := cmdSimRun([]string{"-kernel", "bfs", "-vertices", "3"})
	if err == nil {
		t.Fatal("accepted")
	}
	if got := exitCode(err); got != 1 {
		t.Errorf("exit %d, want 1 (%v)", got, err)
	}
	if strings.Contains(err.Error(), "panic") {
		t.Errorf("error reports a panic: %v", err)
	}
}

// TestSimulationErrorsExitOne drives the shared runJobs path with jobs
// that fail at execution time (not at flag parsing): the aggregate
// error must classify as a runtime failure, exit 1 — for corun and
// bench-suite alike, since both funnel through runJobs.
func TestSimulationErrorsExitOne(t *testing.T) {
	// A corun job missing its second kernel fails inside the executor.
	set, err := runJobs([]runner.Job{
		{Kind: runner.KindCoRun, Arch: "GF106", Kernel: "gather", Seed: 1,
			Options: runner.Options{TestScale: true}},
	}, 1, false, "", nil)
	if err == nil {
		t.Fatal("failing job produced no error")
	}
	if got := exitCode(err); got != 1 {
		t.Errorf("simulation error → exit %d, want 1 (%v)", got, err)
	}
	if set == nil || len(set.Results) != 1 || !set.Results[0].Failed() {
		t.Errorf("partial results not preserved: %+v", set)
	}

	// Same classification for a bench-suite-shaped dynamic job with an
	// unknown workload: resolved at execution, not flag parsing.
	_, err = runJobs([]runner.Job{
		{Kind: runner.KindDynamic, Arch: "GF106", Kernel: "no-such-kernel", Seed: 1,
			Options: runner.Options{TestScale: true}},
	}, 1, false, "", nil)
	if err == nil {
		t.Fatal("unknown workload produced no error")
	}
	if got := exitCode(err); got != 1 {
		t.Errorf("unknown workload → exit %d, want 1 (%v)", got, err)
	}
}

// TestListJSONCatalog asserts the machine-readable catalog names every
// axis a service client needs to build valid job specs.
func TestListJSONCatalog(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	listErr := cmdList([]string{"-json"})
	w.Close()
	os.Stdout = old
	if listErr != nil {
		t.Fatal(listErr)
	}
	var info struct {
		Version        string   `json:"version"`
		Kinds          []string `json:"kinds"`
		Architectures  []any    `json:"architectures"`
		Workloads      []string `json:"workloads"`
		Engines        []string `json:"engines"`
		WarpSchedulers []string `json:"warp_schedulers"`
		DRAMSchedulers []string `json:"dram_schedulers"`
		Placements     []string `json:"placements"`
	}
	if err := json.NewDecoder(r).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Version == "" || len(info.Kinds) != 6 || len(info.Architectures) != 5 ||
		len(info.Workloads) < 9 || len(info.Engines) != 2 ||
		len(info.WarpSchedulers) != 2 || len(info.DRAMSchedulers) != 3 ||
		len(info.Placements) != 2 {
		t.Fatalf("catalog incomplete: %+v", info)
	}
	if info.Workloads[0] != "bfs" {
		t.Fatalf("bfs missing from workloads: %v", info.Workloads)
	}
}
