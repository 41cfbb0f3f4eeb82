package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Mean != 3 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.Sum != 15 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.P99 != 7 || s.StdDev != 0 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

// Property: percentiles are order statistics — P50 <= P90 <= P99 <= Max,
// Min <= Mean <= Max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median matches a direct computation.
func TestMedianMatchesSortProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want := sorted[int(math.Ceil(0.5*float64(len(sorted))))-1]
		return s.P50 == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SummarizeRuns equals Summarize over the expanded sample bit
// for bit, on latencies large enough that the sum of squares passes 2^53
// and N*V*V would round differently from N additions.
func TestSummarizeRunsMatchesSummarizeProperty(t *testing.T) {
	f := func(raw []uint16, counts []uint8, scale uint8) bool {
		var runs []Run
		var xs []float64
		v := float64(0)
		for i, step := range raw {
			v += float64(step) * float64(uint64(1)<<(scale%28))
			n := 1
			if i < len(counts) {
				n = int(counts[i] % 40) // some runs are empty
			}
			runs = append(runs, Run{V: v, N: n})
			for range n {
				xs = append(xs, v)
			}
		}
		return summaryBits(SummarizeRuns(runs)) == summaryBits(Summarize(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// One long run whose squares, added one at a time, round away from
	// N*V*V: the case that pins the order of the additions.
	big := Run{V: 300_000_007, N: 1000}
	xs, sq := make([]float64, big.N), 0.0
	for i := range xs {
		xs[i] = big.V
		sq += big.V * big.V
	}
	if sq == float64(big.N)*big.V*big.V {
		t.Fatal("the long run does not separate N*V*V from N additions")
	}
	if got, want := SummarizeRuns([]Run{big}), Summarize(xs); summaryBits(got) != summaryBits(want) {
		t.Fatalf("runs %+v, sample %+v", got, want)
	}
}

// summaryBits is s with every float as its bit pattern.
func summaryBits(s Summary) [9]uint64 {
	return [9]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.Mean), math.Float64bits(s.P50), math.Float64bits(s.P90),
		math.Float64bits(s.P99), math.Float64bits(s.StdDev), math.Float64bits(s.Sum)}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 123.5)
	var sb strings.Builder
	tb.Render(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", lines)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "123.5") {
		t.Fatalf("row: %q", lines[3])
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2.5)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	if sb.String() != "a,b\n1,2.5\n" {
		t.Fatalf("csv: %q", sb.String())
	}
}

func TestBar(t *testing.T) {
	if Bar(0.5, 10) != "#####....." {
		t.Fatalf("bar: %q", Bar(0.5, 10))
	}
	if Bar(-1, 4) != "...." || Bar(2, 4) != "####" {
		t.Fatal("bar clamping broken")
	}
}
