package main

import (
	"fmt"
	"os"
	"strings"

	"gpulat/internal/config"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
	"gpulat/internal/stats"
)

// parsePairs parses a comma-separated list of A:B workload pairs.
func parsePairs(s string) ([][2]string, error) {
	var out [][2]string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		a, b, ok := strings.Cut(part, ":")
		if !ok || a == "" || b == "" {
			return nil, usagef("bad pair %q (want workloadA:workloadB)", part)
		}
		out = append(out, [2]string{a, b})
	}
	return out, nil
}

// corunJobs is the co-run grid: every pair under every placement on
// every architecture, all variants of a pair at one seed.
func corunJobs(archs []string, pairs [][2]string, placements []string, seed uint64, quick bool) []runner.Job {
	var list []runner.Job
	for _, arch := range archs {
		for _, pair := range pairs {
			for _, place := range placements {
				list = append(list, runner.Job{
					Kind:   runner.KindCoRun,
					Arch:   arch,
					Kernel: pair[0],
					Seed:   seed,
					Options: runner.Options{
						Label:     pair[0] + "+" + pair[1] + "/" + place,
						KernelB:   pair[1],
						Overrides: config.Overrides{Placement: place},
						TestScale: quick,
					},
				})
			}
		}
	}
	return list
}

// cmdCoRun sweeps concurrent-kernel interference: every requested
// workload pair co-runs on independent streams under every placement
// policy on every architecture, and the per-kernel latency-exposure
// metrics land in the standard ResultSet CSV/JSON export. All variants
// of one pair share the pair's seed, so shared-vs-spatial rows differ
// only in placement.
func cmdCoRun(args []string) error {
	fs := newFlags("corun")
	archs := fs.String("archs", "GF100", "comma-separated architecture presets")
	pairs := fs.String("pairs", "pchase:copy,gather:copy",
		"comma-separated workloadA:workloadB pairs (A and B co-run on their own streams)")
	placements := fs.String("placements", "shared,spatial", "comma-separated placement policies")
	quick := fs.Bool("quick", false, "CI smoke scale: tiny inputs")
	seed := fs.Uint64("seed", runner.DefaultBaseSeed, "input seed (shared by every variant of a pair)")
	jsonOut := fs.Bool("json", false, "write the ResultSet as JSON to stdout")
	csvOut := fs.Bool("csv", false, "write the ResultSet as long-form CSV to stdout")
	quiet := fs.Bool("quiet", false, "suppress per-job progress on stderr")
	jobs := jobsFlag(fs)
	engine := engineFlag(fs)
	cacheFl := cacheFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return usagef("corun: -json and -csv are mutually exclusive")
	}
	exec, err := cacheFl.exec()
	if err != nil {
		return err
	}

	pairList, err := parsePairs(*pairs)
	if err != nil {
		return err
	}
	// Validate the whole cross product up front: a typo in any axis is a
	// bad invocation (exit 2), not a mid-sweep simulation failure.
	catalog := map[string]bool{}
	for _, k := range kernels.CatalogNames() {
		catalog[k] = true
	}
	for _, pair := range pairList {
		for _, k := range pair {
			if !catalog[k] {
				return usagef("corun: unknown workload %q (have %s)",
					k, strings.Join(kernels.CatalogNames(), ", "))
			}
		}
	}
	var archList []string
	for _, arch := range strings.Split(*archs, ",") {
		arch = strings.TrimSpace(arch)
		if _, err := config.ByNameOrFile(arch); err != nil {
			return usagef("%v", err)
		}
		archList = append(archList, arch)
	}
	var placeList []string
	for _, p := range strings.Split(*placements, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return usagef("empty placement in -placements %q", *placements)
		}
		if _, err := config.ParsePlacement(p); err != nil {
			return usagef("%v", err)
		}
		placeList = append(placeList, p)
	}

	list := corunJobs(archList, pairList, placeList, *seed, *quick)
	set, err := runJobs(list, *jobs, !*quiet, *engine, exec)
	if err != nil {
		return err
	}
	if *jsonOut || *csvOut {
		return writeSet(set, *jsonOut, *csvOut)
	}

	// The table renders from metrics and the job spec, never from the
	// typed payload: cache-served results carry only metrics.
	tb := stats.NewTable("arch", "pair", "placement", "cycles",
		"A resident", "A exposed%", "B resident", "B exposed%")
	for _, r := range set.Results {
		metric := func(name string) float64 {
			v, _ := r.Metric(name)
			return v
		}
		place := r.Job.Options.Overrides.Placement
		if place == "" {
			place = "shared"
		}
		tb.AddRow(r.Job.Arch, r.Job.Kernel+"+"+r.Job.Options.KernelB, place,
			uint64(metric("cycles")),
			uint64(metric("a_cycles_resident")),
			fmt.Sprintf("%.1f", metric("a_exposed_pct")),
			uint64(metric("b_cycles_resident")),
			fmt.Sprintf("%.1f", metric("b_exposed_pct")))
	}
	fmt.Println("Concurrent-kernel interference — per-kernel residency and exposed latency")
	tb.Render(os.Stdout)
	fmt.Println("\n(A exposed% = share of A's load latency no resident warp could cover;")
	fmt.Println(" shared placement lets B's warps hide A's waits, spatial isolates the SMs)")
	return nil
}
