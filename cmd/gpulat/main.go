// Command gpulat regenerates the tables and figures of "On Latency in
// GPU Throughput Microarchitectures" (ISPASS 2015) on the Go
// reimplementation of the paper's measurement infrastructure, and serves
// the same simulations over HTTP.
//
// `gpulat help` prints the command list (usage, below, is its one copy);
// `gpulat <command> -h` prints a command's flags.
//
// Every -arch flag accepts a preset name or "file:<path>" for a JSON
// configuration produced by `gpulat config`. Every sweep-shaped command
// takes -j N to bound the experiment worker pool (default GOMAXPROCS);
// per-job seeding is deterministic, so -j 1 and -j 8 produce identical
// results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"gpulat/internal/runner"
	"gpulat/internal/service"
	"gpulat/internal/sim"
)

// usageError marks a bad-invocation failure so main can exit 2 (usage)
// instead of 1 (runtime error), mirroring flag's convention.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if code := dispatch(os.Args[1:]); code != 0 {
		os.Exit(code)
	}
}

// dispatch runs the command line args (without the program name) and
// returns the process exit code. Uniform exit-code hygiene: every
// subcommand returns its failure instead of exiting; errors go to
// stderr; -h exits 0, usage errors and unknown commands exit 2, runtime
// failures exit 1.
func dispatch(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd := args[0]
	run, ok := commands()[cmd]
	if !ok {
		if cmd == "-h" || cmd == "--help" || cmd == "help" {
			usage()
			return 0
		}
		fmt.Fprintf(os.Stderr, "gpulat: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
	err := run(args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.Is(err, errFlagReported) {
		fmt.Fprintln(os.Stderr, "gpulat:", err)
	}
	return exitCode(err)
}

// exitCode maps a subcommand's error to the CLI contract: 0 success
// (including -h), 2 bad invocation, 1 runtime failure. Tests assert
// command error paths against this single classifier.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

func commands() map[string]func([]string) error {
	cmds := map[string]func([]string) error{
		"corun":       cmdCoRun,
		"bench-suite": cmdBenchSuite,
		"simrun":      cmdSimRun,
		"export":      cmdExport,
		"config":      cmdConfig,
		"list":        cmdList,
		"serve":       cmdServe,
		"submit":      cmdSubmit,
		"backends":    cmdBackends,
		"version":     cmdVersion,
	}
	for _, e := range experiments {
		if e.flags != nil {
			cmds[e.name] = func(args []string) error { return runExperiment(e, args, os.Stdout) }
		}
	}
	return cmds
}

func usage() {
	fmt.Fprint(os.Stderr, `gpulat — reproduce "On Latency in GPU Throughput Microarchitectures"

commands:
  table1        static latencies of all four generations (Table I)
  sweep         full stride×footprint pointer-chase surface (CSV)
  fig1          per-bucket latency breakdown by pipeline stage (Figure 1)
  fig2          exposed vs hidden load latency per bucket (Figure 2)
  ablate-dram   DRAM scheduler ablation: FR-FCFS vs FCFS
  ablate-sched  warp scheduler ablation: LRR vs GTO
  ablate-mshr   L1 MSHR capacity ablation
  ablate-occupancy  latency hiding vs resident warps per SM
  load-curve    memory-system latency vs offered load (idle → saturated)
  corun         concurrent-kernel interference: workload pairs × placement policies
  bench-suite   the whole paper-reproduction grid, in parallel
  simrun        run a workload and dump device statistics
  export        run a workload and dump per-load records as CSV
  config        dump a preset as editable JSON (use with -arch file:<path>)
  list          available architectures and workloads (-json for machines)
  serve         run the simulation service (HTTP API + result cache);
                -backends b1,b2 runs a sharding coordinator over them,
                -join <coord> registers this backend with a coordinator,
                -journal <path> makes grids survive coordinator restarts
  submit        submit jobs to a running service and collect results; each
                unfinished job is awaited with one blocking status call
                (GET /v1/jobs/{key}?wait=) that returns when it completes
                (-statsz, -healthz, -backendsz print a server document)
  backends      coordinator pool admin: list | join <addr> | leave <addr>
                (elastic membership: joins warm-hand cached results over)
  version       report the build version and cache scheme tag

sweep-shaped commands take -j N (parallel experiment workers); sweep,
bench-suite, and corun also take -cache [-cache-dir D] to memoize job
results in the content-addressed cache the service uses.
`)
}

// newFlags builds a flag set that reports errors instead of exiting, so
// all failures funnel through main's single exit path.
func newFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// errFlagReported stands in for flag-parse failures the FlagSet has
// already printed, so main exits 2 without repeating the message.
var errFlagReported = usageError{errors.New("invalid flags")}

// parseFlags parses args, normalizing failures into the uniform exit
// scheme (-h → 0, bad flags → 2).
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errFlagReported
}

// jobsFlag registers the shared -j worker-count flag.
func jobsFlag(fs *flag.FlagSet) *int {
	return fs.Int("j", 0, "parallel experiment workers (0 = GOMAXPROCS)")
}

// engineFlag registers the shared -engine simulation-loop flag; the two
// engines produce identical results (a test enforces a byte-level diff), so
// the fast-forwarding event kernel is the default. The empty default
// inherits the config's engine, letting a file:<path> configuration pin
// one.
func engineFlag(fs *flag.FlagSet) *string {
	return fs.String("engine", "", "simulation loop: event (fast-forwards provably idle cycles; default) or tick (cycle-by-cycle reference)")
}

// cacheOpts carries the shared -cache/-cache-dir/-cache-entries flags
// the sweep-shaped commands use to memoize results in the same
// content-addressed store `gpulat serve` serves from.
type cacheOpts struct {
	enabled *bool
	dir     *string
	entries *int
}

// cacheFlags registers the shared result-cache flags.
func cacheFlags(fs *flag.FlagSet) cacheOpts {
	return cacheOpts{
		enabled: fs.Bool("cache", false, "memoize job results in the content-addressed cache (warm re-runs skip simulation)"),
		dir:     fs.String("cache-dir", "", "cache directory (default ~/.cache/gpulat; implies -cache)"),
		entries: fs.Int("cache-entries", 0, "LRU bound on cached results (0 = default)"),
	}
}

// exec resolves the flags into a caching executor, or nil when caching
// is off or the flags were never registered (the runner then uses its
// plain executor).
func (c cacheOpts) exec() (runner.ExecFunc, error) {
	if c.enabled == nil || !*c.enabled && *c.dir == "" {
		return nil, nil
	}
	cache, err := service.OpenCache(*c.dir, *c.entries)
	if err != nil {
		return nil, err
	}
	return service.CachedExec(cache, nil), nil
}

// runJobs executes a job list on a bounded pool with progress reporting
// on stderr and Ctrl-C cancellation, after validating the -engine
// selection and stamping it on every job (so no command can forget it).
// exec injects an executor (nil = the default); the -cache flag routes
// the service layer's caching executor through here. Job errors are
// aggregated into the returned error; the partial ResultSet is always
// returned.
func runJobs(jobs []runner.Job, workers int, progress bool, engine string, exec runner.ExecFunc) (*runner.ResultSet, error) {
	if _, err := sim.ParseEngine(engine); err != nil {
		return nil, usagef("%v", err)
	}
	for i := range jobs {
		jobs[i].Engine = engine
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first interrupt, unregister the handler: in-flight
	// simulations are not preemptible, so a second Ctrl-C must take the
	// default action (kill) instead of being swallowed here.
	go func() {
		<-ctx.Done()
		stop()
	}()
	r := runner.New(workers)
	r.Exec = exec
	if progress {
		r.Progress = func(ev runner.ProgressEvent) {
			status := ""
			if ev.Result.Failed() {
				status = "  FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)%s\n",
				ev.Done, ev.Total, ev.Result.Job.Name(),
				ev.Result.Elapsed.Round(1_000_000), status)
		}
	}
	set, err := r.Run(ctx, jobs)
	if err != nil {
		return set, err
	}
	return set, set.Err()
}

// writeSet prints a result set as JSON, as long-form CSV, or as the
// summary table.
func writeSet(set *runner.ResultSet, jsonOut, csvOut bool) error {
	switch {
	case jsonOut:
		return set.WriteJSON(os.Stdout)
	case csvOut:
		return set.WriteCSV(os.Stdout)
	}
	set.SummaryTable().Render(os.Stdout)
	return nil
}

func parseU32List(s string) ([]uint32, error) {
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, usagef("bad list element %q: %v", part, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}
