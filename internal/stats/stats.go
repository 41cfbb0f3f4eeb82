// Package stats provides the small statistics and report-rendering
// toolkit used by the latency analysis: histograms, bucketizers, and
// aligned text/CSV table writers that format the reproduction's tables
// and figures for the terminal and for plotting.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Summary holds order statistics of a sample.
type Summary struct {
	Count         int
	Min, Max      float64
	Mean          float64
	P50, P90, P99 float64
	StdDev        float64
	Sum           float64
}

// Summarize computes summary statistics; an empty sample returns zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
		sq += v * v
	}
	return summary(len(s), sum, sq, func(rank int) float64 { return s[rank] })
}

// Run is N equal values V of a sample.
type Run struct {
	V float64
	N int
}

// SummarizeRuns is Summarize over a sample given as runs of equal values
// in ascending order of V. It adds each value and its square one at a
// time, in that order, as Summarize does, so the two agree bit for bit:
// N*V and N*V*V round differently once the sums pass 2^53.
func SummarizeRuns(runs []Run) Summary {
	n := 0
	var sum, sq float64
	for _, r := range runs {
		n += r.N
		for range r.N {
			sum += r.V
			sq += r.V * r.V
		}
	}
	if n == 0 {
		return Summary{}
	}
	return summary(n, sum, sq, func(rank int) float64 {
		for _, r := range runs {
			if rank < r.N {
				return r.V
			}
			rank -= r.N
		}
		panic("stats: rank past the last run")
	})
}

// summary finishes a non-empty sample of count values from their sum,
// their sum of squares and at, the value of each rank in ascending order.
func summary(count int, sum, sq float64, at func(rank int) float64) Summary {
	n := float64(count)
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	q := func(p float64) float64 {
		return at(min(max(int(math.Ceil(p*n))-1, 0), count-1))
	}
	return Summary{
		Count: count, Min: at(0), Max: at(count - 1), Mean: mean,
		P50: q(0.50), P90: q(0.90), P99: q(0.99),
		StdDev: math.Sqrt(variance), Sum: sum,
	}
}

// Table renders aligned text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Precise wraps a float64 cell so AddRow renders it with full %g
// precision instead of the display default of one decimal — used for
// machine-readable CSV exports where rounding would lose information.
type Precise float64

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Precise:
			row[i] = strconv.FormatFloat(float64(v), 'g', -1, 64)
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// RenderCSV writes the table as CSV (no quoting; values are numeric or
// simple identifiers by construction).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.header, ","))
	for _, r := range t.rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// Bar renders a proportional ASCII bar of at most width chars.
func Bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
