package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 7, nproc: runtime.NumCPU(), clients: runtime.NumCPU(), smoke: true, tmp: t.TempDir()}
}

// TestBenchmarkFile checks BENCHMARK.json against the harness's own
// tables and against the contract's limits.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s named twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness %v", names, workloadNames)
	}
}

// TestSmokeRuns runs every workload untraced and traced at smoke scale:
// the run is correct, every metric of the applicable list is there once
// with a unit and a finite value, end-to-end metrics are never zero, and
// the trace file's spans nest with non-negative self time.
func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rep, err := run(name, 0.05, traced, testEnv(t), out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", name, traced, rep.Correct, rep.Attempted, rep.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || rep.Units[d.Name] != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %v (present %v, unit %q)", name, traced, d.Name, v, ok, rep.Units[d.Name])
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v)
				}
			}
			if traced {
				checkTraceFile(t, filepath.Join(out, "trace-"+name+".json"))
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || tf.Host.NProc == 0 {
		t.Fatalf("%s: %d spans, host %+v", path, len(tf.Spans), tf.Host)
	}
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("%s: span %d %s [%d,%d] self %d", path, s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] escapes parent %s [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Name: "request", Req: "r", Start: 0, End: 100},
		{ID: 1, Parent: noParent, Name: "call", Req: "r", Start: 10, End: 60},
		{ID: 2, Parent: noParent, Name: "handler", Req: "r", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "overlap", Req: "other", Start: 40, End: 80},
		{ID: 4, Parent: noParent, Name: "alone", Req: "", Start: 0, End: 5},
	}
	linkByContainment(spans)
	computeSelf(spans)
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[4].Parent != noParent {
		t.Errorf("parents: call→%d handler→%d alone→%d", spans[1].Parent, spans[2].Parent, spans[4].Parent)
	}
	// request's children cover [10,60] ∪ [40,80] = 70 of its 100.
	if spans[0].Self != 30 || spans[1].Self != 20 || spans[2].Self != 30 {
		t.Errorf("self: request %d call %d handler %d", spans[0].Self, spans[1].Self, spans[2].Self)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"gridJobs":   func(s uint64) any { return gridJobs(s) },
		"chaseJobs":  func(s uint64) any { return chaseJobs(s, 200) },
		"zipfStream": func(s uint64) any { return zipfStream(s, 100, 500, 1.1) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(11), gen(11)) {
			t.Errorf("%s: equal seeds gave different inputs", name)
		}
		if reflect.DeepEqual(gen(11), gen(12)) {
			t.Errorf("%s: different seeds gave equal inputs", name)
		}
	}
	if n := len(gridJobs(1)); n != 26 {
		t.Errorf("paper grid has %d jobs, want 26", n)
	}
	keys := map[string]bool{}
	for _, j := range chaseJobs(3, 500) {
		keys[string(j.Key())] = true
	}
	if len(keys) != 500 {
		t.Errorf("chaseJobs: %d distinct keys of 500", len(keys))
	}
	hist := make([]int, 100)
	for _, k := range zipfStream(5, 100, 5000, 1.1) {
		hist[k]++
	}
	if hist[0] <= hist[10] || hist[10] <= hist[99] {
		t.Errorf("zipfStream is not skewed: rank0=%d rank10=%d rank99=%d", hist[0], hist[10], hist[99])
	}
}

// TestCorruptedResultFails: a served result that differs from direct
// execution, a Table I cell off the paper's value, and a pass whose
// output differs from pass 1 must each count as a failure.
func TestCorruptedResultFails(t *testing.T) {
	w := &serveWorkload{env: testEnv(t)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	if err := w.prepare(nil); err != nil {
		t.Fatal(err)
	}
	w.want[0] = "mean_lat=1;"
	if pr := w.pass(nil, noParent); pr.failed != 1 {
		t.Errorf("corrupted expectation: %d failures, want 1 (%v)", pr.failed, w.failures)
	}

	_, failures := tableIError(func(arch, metric string) (float64, bool) {
		for _, c := range tableI {
			if c.arch == arch && c.metric == metric {
				if arch == "GF106" && metric == "l2_cycles" {
					return c.want * 1.5, true
				}
				return c.want, true
			}
		}
		return 0, false
	})
	if len(failures) != 1 {
		t.Errorf("Table I with one cell off: failures %v", failures)
	}

	rep := &report{}
	var st passStats
	for _, digest := range []string{"a", "a", "b"} {
		if err := runPass(fixedDigest(digest), nil, "pass", rep, &st); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Failed != 1 {
		t.Errorf("digest change: %d failures, want 1", rep.Failed)
	}
}

// fixedDigest is a workload whose passes do nothing but report a digest.
type fixedDigest string

func (fixedDigest) engines() string                      { return "" }
func (fixedDigest) setup() error                         { return nil }
func (fixedDigest) teardown()                            {}
func (fixedDigest) prepare(*tracer) error                { return nil }
func (fixedDigest) verify() (int, []string)              { return 0, nil }
func (fixedDigest) layers([]span, func(string, float64)) {}
func (d fixedDigest) pass(*tracer, int) passResult {
	return passResult{attempted: 1, jobs: 1, digest: string(d)}
}

func TestCompareFlagsARegression(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, scale float64) {
		for _, w := range workloadNames {
			rep := report{Workload: w, Correct: true, Metrics: map[string]float64{}}
			for _, m := range bf.EndToEnd {
				rep.Metrics[m.Name] = 10
				if m.Name == "wall_s" {
					rep.Metrics[m.Name] = 10 * scale
				}
			}
			data, _ := json.Marshal(rep)
			if err := os.WriteFile(filepath.Join(dir, w+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1)
	write(same, 1.01)
	write(slow, 1.5)
	var buf bytes.Buffer
	if exceeded, err := compareDirs("../BENCHMARK.json", a, same, &buf); err != nil || exceeded {
		t.Errorf("1%% slower: exceeded=%v err=%v\n%s", exceeded, err, buf.String())
	}
	buf.Reset()
	if exceeded, err := compareDirs("../BENCHMARK.json", a, slow, &buf); err != nil || !exceeded {
		t.Errorf("50%% slower: exceeded=%v err=%v", exceeded, err)
	}
	if !strings.Contains(buf.String(), "EXCEEDED") {
		t.Errorf("no EXCEEDED mark in:\n%s", buf.String())
	}
}

func TestParallelismGuard(t *testing.T) {
	if err := checkParallelism(runtime.NumCPU()); err != nil {
		t.Error(err)
	}
	if err := checkParallelism(runtime.NumCPU() + 1); err == nil {
		t.Error("more clients than processors accepted")
	}
	old := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(old)
	if err := checkParallelism(1); err == nil {
		t.Error("GOMAXPROCS above nproc accepted")
	}
}
