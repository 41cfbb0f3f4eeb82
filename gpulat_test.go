package gpulat

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	names := Architectures()
	if len(names) != 5 {
		t.Fatalf("architectures = %v", names)
	}
	for _, n := range names {
		cfg, err := Preset(n)
		if err != nil {
			t.Fatalf("Preset(%s): %v", n, err)
		}
		if cfg.NumSMs <= 0 {
			t.Fatalf("Preset(%s) has no SMs", n)
		}
	}
	if _, err := Preset("RTX9090"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(Workloads()) < 8 {
		t.Fatalf("workloads = %v", Workloads())
	}
	if _, err := NewWorkload("vecadd", ScaleTest, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkload("bogus", ScaleTest, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunWorkloadOnSmallDevice(t *testing.T) {
	cfg, err := Preset("GF106")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload("copy", ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkloadOn(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Tracker.Len() == 0 {
		t.Fatal("instrumentation produced nothing")
	}
	var sb strings.Builder
	res.Breakdown(16).Render(&sb)
	if !strings.Contains(sb.String(), "SMBase") {
		t.Fatal("breakdown render missing stages")
	}
}

func TestNewBFSBuilds(t *testing.T) {
	mk, err := NewBFS(BFSOptions{Vertices: 256, AttachEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mk.Name == "" {
		t.Fatal("unnamed workload")
	}
	// Uniform variant too.
	if _, err := NewBFS(BFSOptions{Vertices: 256, Uniform: true}); err != nil {
		t.Fatal(err)
	}
}

// TestNewBFSRejectsUnbuildableGraphs: a graph the generators cannot
// build is an error from NewBFS, RunBFS and OccupancySweep, not a panic.
func TestNewBFSRejectsUnbuildableGraphs(t *testing.T) {
	cfg, err := Preset("GF106")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opt BFSOptions
		ok  bool
	}{
		{BFSOptions{Vertices: 3}, false},
		{BFSOptions{Vertices: 4}, false},
		{BFSOptions{Vertices: 1, Uniform: true}, false},
		{BFSOptions{Vertices: -8}, false},
		{BFSOptions{Vertices: -8, Uniform: true}, false},
		{BFSOptions{Vertices: 64, AttachEdges: -1}, false},
		{BFSOptions{Vertices: 64, AttachEdges: -1, Uniform: true}, false},
		{BFSOptions{Vertices: 5}, true},
	} {
		if _, err := NewBFS(tc.opt); (err == nil) != tc.ok {
			t.Errorf("NewBFS(%+v) = %v, want ok=%v", tc.opt, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		if _, err := RunBFS(cfg, tc.opt); err == nil {
			t.Errorf("RunBFS(%+v) accepted", tc.opt)
		}
		if _, err := OccupancySweep(cfg, []int{8}, tc.opt); err == nil {
			t.Errorf("OccupancySweep(%+v) accepted", tc.opt)
		}
	}
}

// TestPublicRunnerSurface drives a tiny grid through the re-exported
// runner and service APIs end to end.
func TestPublicRunnerSurface(t *testing.T) {
	grid := Grid{
		Kind:     KindDynamic,
		Archs:    []string{"GF106"},
		Kernels:  []string{"vecadd", "reduce"},
		Variants: []JobOptions{{TestScale: true}},
	}
	jobs := grid.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("grid expanded to %d jobs, want 2", len(jobs))
	}
	set, err := NewRunner(2).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Results {
		if _, ok := r.Metric("ipc"); !ok {
			t.Errorf("%s: missing ipc metric", r.Job.Name())
		}
	}
	var csv strings.Builder
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "vecadd") {
		t.Errorf("CSV export missing job rows:\n%s", csv.String())
	}

	// The same grid served over HTTP by a cached station exports the
	// same bytes.
	cache, err := OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(cache, StationConfig{Workers: 2})
	defer st.Close()
	srv := httptest.NewServer(NewServiceHandler(st, cache))
	defer srv.Close()
	served, err := NewServiceClient(srv.URL).RunJobs(context.Background(), jobs)
	var servedCSV strings.Builder
	if err == nil {
		err = served.WriteCSV(&servedCSV)
	}
	if err != nil {
		t.Fatal(err)
	}
	if servedCSV.String() != csv.String() {
		t.Errorf("served CSV differs from the direct run:\n%s", servedCSV.String())
	}
}
