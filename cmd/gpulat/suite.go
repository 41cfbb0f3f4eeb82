package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gpulat/internal/runner"
)

// suiteJobs assembles the whole paper-reproduction grid: every
// experiment with a section, as one parallel job list, each job labelled
// "<section>/<variant>". quick shrinks inputs to CI smoke size while
// keeping every section represented.
func suiteJobs(quick bool) []runner.Job {
	var list []runner.Job
	for _, e := range experiments {
		if e.section == "" {
			continue
		}
		p := suiteParams(e, quick)
		jobs, err := e.jobs(p)
		if err != nil {
			panic(fmt.Sprintf("suite section %s: %v", e.section, err)) // fixed params cannot fail
		}
		for _, j := range jobs {
			o := &j.Options
			o.Label = strings.TrimSuffix(e.section+"/"+o.Label, "/")
			o.TestScale = quick
			if o.Vertices == 0 {
				o.Vertices = p.vertices
			}
			list = append(list, j)
		}
	}
	return list
}

// suiteParams are e's params in the suite: its command's flag defaults
// at the suite's scale (the runner's own defaults at full scale, smoke
// sizes with quick), then the entry's own suite values.
func suiteParams(e experiment, quick bool) params {
	var p params
	if e.flags != nil {
		e.flags(flag.NewFlagSet(e.name, flag.ContinueOnError), &p)
	}
	p.vertices, p.cycles = 0, 0
	if quick {
		p.accesses, p.vertices, p.cycles = 48, 1<<9, 8_000
	}
	if e.suite != nil {
		e.suite(&p)
	}
	return p
}

// cmdBenchSuite runs the whole paper-reproduction grid on the parallel
// runner and prints an aggregate summary; -json/-csv dump the machine-
// readable ResultSet, which is byte-identical for every -j.
func cmdBenchSuite(args []string) error {
	fs := newFlags("bench-suite")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	quick := fs.Bool("quick", false, "CI smoke scale: tiny inputs, every section still covered")
	jsonOut := fs.Bool("json", false, "write the ResultSet as JSON to stdout")
	csvOut := fs.Bool("csv", false, "write the ResultSet as long-form CSV to stdout")
	quiet := fs.Bool("quiet", false, "suppress per-job progress on stderr")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	cacheFl := cacheFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return usagef("bench-suite: -json and -csv are mutually exclusive")
	}
	exec, err := cacheFl.exec()
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench-suite:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench-suite:", err)
			}
		}()
	}

	list := suiteJobs(*quick)
	start := time.Now()
	set, err := runJobs(list, *jobs, !*quiet, *engine, exec)
	if err != nil {
		// Partial failures still produce the summary below; hard
		// cancellation aborts.
		if set == nil || len(set.Results) == 0 {
			return err
		}
	}
	wall := time.Since(start)

	if werr := writeSet(set, *jsonOut, *csvOut); werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "bench-suite: %d jobs, wall %s, job-time sum %s, workers %d\n",
		len(set.Results), wall.Round(time.Millisecond),
		set.TotalElapsed().Round(time.Millisecond), runner.New(*jobs).EffectiveWorkers())
	return err
}
