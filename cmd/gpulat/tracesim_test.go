package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpulat/internal/config"
	"gpulat/internal/runner"
	"gpulat/internal/sim"
)

// TestTraceSimFamilies pins what `simrun -trace-sim` declares under each
// engine: every HELP and TYPE line, in order, and each family's label
// names, against testdata/tracesim.golden (GPULAT_TRACESIM_GOLDEN=write
// refreshes it). Values are left to export-identity, so a change that
// moves wake counts does not touch this golden.
func TestTraceSimFamilies(t *testing.T) {
	var got strings.Builder
	for _, engine := range []sim.Engine{sim.EngineEvent, sim.EngineTick} {
		cfg := config.GF100()
		cfg.Engine = engine
		res, err := runner.RunWorkload(cfg, runner.Job{Kind: runner.KindDynamic, Arch: "GF100", Kernel: "vecadd",
			Seed: 42, Options: runner.Options{TestScale: true}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.prom")
		if err := writeSimTrace(path, res); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + engine.String() + " ==\n")
		labeled := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if strings.HasPrefix(line, "# ") {
				got.WriteString(line + "\n")
				continue
			}
			family, labels, ok := strings.Cut(line, "{")
			if !ok || labeled[family] {
				continue
			}
			labeled[family] = true
			var names []string
			for _, pair := range strings.Split(labels[:strings.LastIndex(labels, "}")], ",") {
				name, _, _ := strings.Cut(pair, "=")
				names = append(names, name)
			}
			got.WriteString("# LABELS " + family + " " + strings.Join(names, ",") + "\n")
		}
	}
	golden := filepath.Join("testdata", "tracesim.golden")
	if os.Getenv("GPULAT_TRACESIM_GOLDEN") == "write" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with GPULAT_TRACESIM_GOLDEN=write to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("-trace-sim families differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
