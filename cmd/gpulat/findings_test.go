package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gpulat/internal/runner"
)

// quickSuites memoizes one run of the quick suite per engine and worker
// count, so every test that reads it shares the simulation.
var quickSuites = map[string]*runner.ResultSet{}

// quickSuite is bench-suite -quick under engine on runner.New(workers).
func quickSuite(t *testing.T, engine string, workers int) *runner.ResultSet {
	t.Helper()
	memo := fmt.Sprintf("%s/%d", engine, workers)
	if set, ok := quickSuites[memo]; ok {
		return set
	}
	quickSuites[memo] = runGrid(t, suiteJobs(true), engine, workers)
	return quickSuites[memo]
}

// runGrid runs jobs under engine on runner.New(workers), as the sweep
// commands do, and fails t if any job fails.
func runGrid(t *testing.T, jobs []runner.Job, engine string, workers int) *runner.ResultSet {
	t.Helper()
	for i := range jobs {
		jobs[i].Engine = engine
	}
	set, err := runner.New(workers).Run(context.Background(), jobs)
	if err == nil {
		err = set.Err()
	}
	if err != nil {
		t.Fatalf("-engine=%s -j %d: %v", engine, workers, err)
	}
	return set
}

func experimentNamed(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range experiments {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return experiment{}
}

// findings renders what the quick suite says about the paper's claims:
// Table I per level and architecture, Figure 1's stage shares per
// latency bucket and Figure 2's exposure for BFS on GF100, and the order
// each ablation puts its variants in.
func findings(t *testing.T, set *runner.ResultSet) string {
	sections := map[string]*runner.ResultSet{}
	for _, r := range set.Results {
		section, _, _ := strings.Cut(r.Job.Options.Label, "/")
		if sections[section] == nil {
			sections[section] = &runner.ResultSet{}
		}
		sections[section].Results = append(sections[section].Results, r)
	}
	var b bytes.Buffer
	render := func(name string, p params, set *runner.ResultSet) {
		if err := experimentNamed(t, name).render(p, set, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString("\n")
	}
	render("table1", params{}, sections["table1"])

	fig := sections["fig1+fig2"]
	b.WriteString("Figure 1 — BFS on GF100, stage shares (%) per latency bucket\n")
	render("fig1", params{buckets: 48, csv: true}, fig)
	fmt.Fprintf(&b, "Figure 2 — BFS on GF100: %.1f%% of load latency exposed; %.1f%% of loads >50%% exposed\n\n",
		metric(&fig.Results[0], "exposed_pct"), metric(&fig.Results[0], "mostly_exposed_pct"))

	for _, o := range []struct{ section, metric string }{
		{"ablate-dram", "mean_lat"},
		{"ablate-sched", "cycles"},
		{"ablate-mshr", "cycles"},
		{"ablate-occupancy", "exposed_pct"},
	} {
		rs := slices.Clone(sections[o.section].Results)
		slices.SortStableFunc(rs, func(a, b runner.Result) int {
			return cmp.Compare(metric(&a, o.metric), metric(&b, o.metric))
		})
		fmt.Fprintf(&b, "%s by %s, lowest first:", o.section, o.metric)
		for i := range rs {
			sep := " <"
			switch {
			case i == 0:
				sep = ""
			case metric(&rs[i], o.metric) == metric(&rs[i-1], o.metric):
				sep = " ="
			}
			fmt.Fprintf(&b, "%s %s", sep, strings.TrimPrefix(rs[i].Job.Options.Label, o.section+"/"))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestPaperFindings compares the quick suite's findings with the
// committed testdata/findings.golden. The identity gates compare a
// change only with its parent; this file shows drift across many.
// GPULAT_FINDINGS_GOLDEN=write refreshes it — say which finding moved
// and why.
func TestPaperFindings(t *testing.T) {
	got := findings(t, quickSuite(t, "event", 0))
	golden := filepath.Join("testdata", "findings.golden")
	if os.Getenv("GPULAT_FINDINGS_GOLDEN") == "write" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with GPULAT_FINDINGS_GOLDEN=write to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("findings differ from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// TestFigGoldens runs the fig1 and fig2 commands on BFS at test scale
// (512 vertices) in the table, -csv and -chart views, under both
// engines, and compares each figure's three views with
// testdata/<fig>.golden; the engines must print the same bytes.
// GPULAT_GOLDEN=write refreshes the files — say which view moved and why.
func TestFigGoldens(t *testing.T) {
	for _, fig := range []string{"fig1", "fig2"} {
		var got bytes.Buffer
		for _, view := range []string{"table", "-csv", "-chart"} {
			fmt.Fprintf(&got, "== %s %s ==\n", fig, view)
			var first []byte
			for _, engine := range []string{"event", "tick"} {
				args := []string{"-vertices", "512", "-engine", engine}
				if view != "table" {
					args = append(args, view)
				}
				var out bytes.Buffer
				if err := runExperiment(experimentNamed(t, fig), args, &out); err != nil {
					t.Fatalf("%s %q: %v", fig, args, err)
				}
				if first == nil {
					first = out.Bytes()
					got.Write(first)
				} else if !bytes.Equal(out.Bytes(), first) {
					t.Errorf("%s %s: -engine %s prints other bytes than -engine event:\n%s", fig, view, engine, out.Bytes())
				}
			}
		}
		matchGolden(t, fig+".golden", got.Bytes())
	}
}

// matchGolden compares got with testdata/<name>, quoting the first line
// that differs; GPULAT_GOLDEN=write refreshes the file first.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("GPULAT_GOLDEN") == "write" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with GPULAT_GOLDEN=write to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < min(len(gl), len(wl))-1 && gl[i] == wl[i] {
		i++
	}
	t.Errorf("%s differs at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
}

// TestQuickSuiteGolden compares the long-form CSV of the quick suite,
// what `bench-suite -quick -csv` writes, with testdata/suite.golden: every
// metric of every job, where TestPaperFindings keeps only the orderings.
func TestQuickSuiteGolden(t *testing.T) {
	var got bytes.Buffer
	if err := quickSuite(t, "event", 0).WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "suite.golden", got.Bytes())
}

// TestCoRunGolden compares the long-form CSV of the quick co-run grid,
// what `corun -quick -csv` writes, with testdata/corun.golden.
func TestCoRunGolden(t *testing.T) {
	var got bytes.Buffer
	if err := quickCoRun(t, "event", 1).WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "corun.golden", got.Bytes())
}
