package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareDirs prints, for every workload and end-to-end metric, how much
// worse report directory b is than a, relative to a, next to the
// metric's bound; it reports whether any bound was exceeded. A run that
// was not correct counts as exceeding.
func compareDirs(benchmark, a, b string, w io.Writer) (exceeded bool, err error) {
	bf, err := readBenchmarkFile(benchmark)
	if err != nil {
		return false, err
	}
	load := func(dir, workload string) (*report, error) {
		data, err := os.ReadFile(filepath.Join(dir, workload+".json"))
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s/%s.json: %w", dir, workload, err)
		}
		return &r, nil
	}
	fmt.Fprintf(w, "%-11s %-15s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range bf.Workloads {
		ra, err := load(a, wl.Name)
		if err != nil {
			return false, err
		}
		rb, err := load(b, wl.Name)
		if err != nil {
			return false, err
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-11s run not correct (A failed %d, B failed %d)\n", wl.Name, ra.Failed, rb.Failed)
			exceeded = true
		}
		for _, m := range bf.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark, exceeded = "  EXCEEDED", true
			}
			fmt.Fprintf(w, "%-11s %-15s %14.5f %14.5f %+8.1f%% %6.0f%%%s\n",
				wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
	}
	return exceeded, nil
}
