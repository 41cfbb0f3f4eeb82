package main

import (
	"encoding/json"
	"os"
	"testing"

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
// "loadcurve" spelling of load-curve among them — exits 2 before
// anything runs, as does an empty command line.
func TestUnknownCommandsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"loadcurve"}, {"no-such-command"}, {}} {
		if got := dispatch(args); got != 2 {
			t.Errorf("gpulat %q: exit %d, want 2", args, got)
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

// TestParFlagIsGone: a device is stepped by one goroutine, so the width
// flag every simulating subcommand used to take is now an unknown flag
// (exit 2), not a silently ignored one.
func TestParFlagIsGone(t *testing.T) {
	for name, cmd := range map[string]func([]string) error{
		"simrun": cmdSimRun, "corun": cmdCoRun, "bench-suite": cmdBenchSuite,
		"bench-kernel": cmdBenchKernel, "serve": cmdServe,
	} {
		if got := exitCode(cmd([]string{"-par", "2"})); got != 2 {
			t.Errorf("%s -par 2: exit %d, want 2", name, got)
		}
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
	}, 1, false, "")
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
	}, 1, false, "")
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
