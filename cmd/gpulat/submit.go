package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"gpulat/internal/runner"
	"gpulat/internal/service"
)

// cmdSubmit is the service client: it sends a job list to a running
// `gpulat serve`, waits for completion (one blocking
// GET /v1/jobs/{key}?wait= per unfinished job, falling back to interval
// polling only against a server too old to hold the request), and renders the reassembled
// ResultSet exactly as the local sweep commands would — so a service
// round-trip of `-suite -quick -csv` byte-matches `bench-suite -quick
// -csv`, which TestServiceMatchesDirect and `make serve-smoke` enforce.
func cmdSubmit(args []string) error {
	fs := newFlags("submit")
	addr := fs.String("addr", "http://127.0.0.1:8091", "service base URL")
	suite := fs.Bool("suite", false, "submit the bench-suite paper-reproduction grid")
	quick := fs.Bool("quick", false, "with -suite: CI smoke scale")
	jobsFile := fs.String("jobs", "", "submit jobs from a JSON file ('-' = stdin; a [<job>...] array or {\"jobs\": [...]} document)")
	wait := fs.Duration("wait", 15*time.Second, "how long to wait for the server to come up (job completion is awaited without a limit, by status long-poll)")
	jsonOut := fs.Bool("json", false, "write the ResultSet as JSON to stdout")
	csvOut := fs.Bool("csv", false, "write the ResultSet as long-form CSV to stdout")
	quiet := fs.Bool("quiet", false, "suppress the timing line on stderr")
	statsz := fs.Bool("statsz", false, "print the server's /v1/statsz document and exit")
	healthz := fs.Bool("healthz", false, "print the server's /v1/healthz document and exit")
	backendsz := fs.Bool("backendsz", false, "print a coordinator's /v1/backendsz document and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return usagef("submit: -json and -csv are mutually exclusive")
	}

	// Resolve what to do before touching the network, so invocation
	// mistakes classify as usage errors even when no server is up.
	var jobs []runner.Job
	switch {
	case *statsz || *healthz || *backendsz:
		// no job list
	case *suite && *jobsFile != "":
		return usagef("submit: -suite and -jobs are mutually exclusive")
	case *suite:
		jobs = suiteJobs(*quick)
	case *jobsFile != "":
		var err error
		if jobs, err = readJobs(*jobsFile); err != nil {
			return err
		}
	default:
		return usagef("submit: nothing to submit (want -suite, -jobs, -statsz, -healthz, or -backendsz)")
	}

	client := service.NewClient(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := client.WaitHealthy(ctx, *wait); err != nil {
		return err
	}

	switch {
	case *statsz:
		stats, err := client.Statsz(ctx)
		if err != nil {
			return err
		}
		return printJSON(stats)
	case *healthz:
		h, err := client.Healthz(ctx)
		if err != nil {
			return err
		}
		return printJSON(h)
	case *backendsz:
		b, err := client.Backendsz(ctx)
		if err != nil {
			return err
		}
		return printJSON(b)
	}

	start := time.Now()
	set, err := client.RunJobs(ctx, jobs)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if err := writeSet(set, *jsonOut, *csvOut); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "submit: %d jobs via %s in %s\n",
			len(set.Results), *addr, wall.Round(time.Millisecond))
	}
	return set.Err()
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readJobs loads a job list from path: either a bare JSON array of jobs
// or a {"jobs": [...]} document ('-' reads stdin).
func readJobs(path string) ([]runner.Job, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var jobs []runner.Job
		if err := json.Unmarshal(data, &jobs); err != nil {
			return nil, usagef("submit: bad job array in %s: %v", path, err)
		}
		return jobs, nil
	}
	var doc struct {
		Jobs []runner.Job `json:"jobs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, usagef("submit: bad jobs document in %s: %v", path, err)
	}
	if len(doc.Jobs) == 0 {
		return nil, usagef("submit: %s names no jobs", path)
	}
	return doc.Jobs, nil
}
