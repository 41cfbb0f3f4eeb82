package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"gpulat/internal/stats"
)

// Metric is one named scalar a job produced. Metrics keep insertion
// order so exports are deterministic.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Result is the outcome of one job. Wall time is retained for progress
// reporting but excluded from exports, which must be byte-identical
// across worker counts.
type Result struct {
	Index   int      `json:"index"`
	Job     Job      `json:"job"`
	Metrics []Metric `json:"metrics,omitempty"`
	Err     string   `json:"error,omitempty"`
	// Payload holds the experiment's typed result for callers that
	// render rich reports. A dynamic job's *core.DynamicResult keeps the
	// per-latency aggregate every report reads and a released device
	// that holds only counters (gpu.GPU.Release), not its load records
	// or its simulator; run the job through RunWorkload for those.
	Payload any `json:"-"`
	// Elapsed is the job's wall time (not exported: nondeterministic).
	Elapsed time.Duration `json:"-"`
}

// Metric returns a named metric value.
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Failed reports whether the job errored.
func (r *Result) Failed() bool { return r.Err != "" }

// ResultSet aggregates a sweep's results in job order.
type ResultSet struct {
	Results []Result `json:"results"`
}

// Err returns nil when every job succeeded, otherwise an aggregate
// listing each failed job.
func (s *ResultSet) Err() error {
	var errs []error
	for i := range s.Results {
		if r := &s.Results[i]; r.Failed() {
			errs = append(errs, fmt.Errorf("%s: %s", r.Job.Name(), r.Err))
		}
	}
	return errors.Join(errs...)
}

// Failed returns the failed results.
func (s *ResultSet) Failed() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// TotalElapsed sums per-job wall time (the serial-equivalent cost).
func (s *ResultSet) TotalElapsed() time.Duration {
	var t time.Duration
	for _, r := range s.Results {
		t += r.Elapsed
	}
	return t
}

// WriteJSON writes the result set as indented JSON. Output depends only
// on the job list and per-job results, never on execution interleaving.
func (s *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the result set in long form, one row per metric:
// index, kind, arch, kernel, label, seed, metric, value. Failed jobs
// emit a single row with metric "error" and the message in the value
// column.
func (s *ResultSet) WriteCSV(w io.Writer) error {
	tb := stats.NewTable("index", "kind", "arch", "kernel", "label", "seed", "metric", "value")
	for _, r := range s.Results {
		j := r.Job
		if r.Failed() {
			// Quote the message: error text may contain commas or
			// newlines, which would corrupt the unquoted CSV.
			tb.AddRow(r.Index, string(j.Kind), j.ArchName(), j.Kernel, j.Options.Label, j.Seed,
				"error", strconv.Quote(r.Err))
			continue
		}
		for _, m := range r.Metrics {
			tb.AddRow(r.Index, string(j.Kind), j.ArchName(), j.Kernel, j.Options.Label, j.Seed,
				m.Name, stats.Precise(m.Value))
		}
	}
	tb.RenderCSV(w)
	return nil
}

// SummaryTable renders one row per job with its headline metrics — the
// human-facing digest of a sweep.
func (s *ResultSet) SummaryTable() *stats.Table {
	tb := stats.NewTable("job", "seed", "status", "headline")
	for _, r := range s.Results {
		status := "ok"
		headline := ""
		if r.Failed() {
			status = "FAIL"
			headline = r.Err
		} else if len(r.Metrics) > 0 {
			n := min(len(r.Metrics), 3)
			for i := 0; i < n; i++ {
				if i > 0 {
					headline += "  "
				}
				headline += fmt.Sprintf("%s=%.6g", r.Metrics[i].Name, r.Metrics[i].Value)
			}
		}
		tb.AddRow(r.Job.Name(), r.Job.Seed, status, headline)
	}
	return tb
}
