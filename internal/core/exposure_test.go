package core

import (
	"strings"
	"testing"

	"gpulat/internal/sim"
)

// TestExposureBucketsHalfOpen pins the bucket convention: a load whose
// latency lands exactly on a bucket boundary belongs to the higher
// bucket only — bucket i covers [Lo, Hi), with the last bucket also
// including its Hi. Before the convention was asserted, the renderers
// printed "lo-hi" ranges whose endpoints overlapped, so a boundary load
// read as a member of two buckets.
func TestExposureBucketsHalfOpen(t *testing.T) {
	tr := NewTracker()
	var hit [NumStages]sim.Cycle
	// Latencies 100 and 500 over 4 buckets: lo=100, hi=500,
	// width=(400+4)/4=101, so the boundary between bucket 0 and 1 is at
	// 201. A load of exactly 201 must count once, in bucket 1.
	feed(tr, 0, 0, 100, hit)
	feed(tr, 0, 0, 201, hit)
	feed(tr, 0, 0, 500, hit)
	rep := tr.Exposure("halfopen", "tiny", 4)
	if len(rep.Buckets) != 4 {
		t.Fatalf("buckets = %d", len(rep.Buckets))
	}
	if got, want := rep.Buckets[1].Lo, rep.Buckets[0].Hi; got != want {
		t.Fatalf("buckets not adjacent: b0.Hi=%d b1.Lo=%d", want, got)
	}
	boundary := rep.Buckets[1].Lo // 201: b0's exclusive Hi, b1's inclusive Lo
	if boundary != 201 {
		t.Fatalf("boundary = %d, want 201", boundary)
	}
	if rep.Buckets[0].Count != 1 || rep.Buckets[1].Count != 1 {
		t.Fatalf("boundary load double- or mis-counted: b0=%d b1=%d",
			rep.Buckets[0].Count, rep.Buckets[1].Count)
	}
	total := 0
	for _, b := range rep.Buckets {
		total += b.Count
	}
	if total != rep.Requests {
		t.Fatalf("bucket counts sum to %d, requests = %d", total, rep.Requests)
	}
}

// TestExposureMaxLatencyInLastBucket: the maximum observed latency must
// land in the final bucket (inclusive upper bound), never be dropped or
// wrapped by the index clamp.
func TestExposureMaxLatencyInLastBucket(t *testing.T) {
	tr := NewTracker()
	var hit [NumStages]sim.Cycle
	feed(tr, 0, 0, 10, hit)
	feed(tr, 0, 0, 1000, hit)
	rep := tr.Exposure("max", "tiny", 8)
	last := rep.Buckets[len(rep.Buckets)-1]
	if last.Count != 1 {
		t.Fatalf("max-latency load not in last bucket: %+v", rep.Buckets)
	}
	if sim.Cycle(1000) < last.Lo || sim.Cycle(1000) > last.Hi {
		t.Fatalf("last bucket [%d,%d] does not span the max latency", last.Lo, last.Hi)
	}
}

// TestExposureRangeLabels asserts the rendered convention: every bucket
// prints as [lo,hi) except the last, which prints [lo,hi].
func TestExposureRangeLabels(t *testing.T) {
	tr := NewTracker()
	var hit [NumStages]sim.Cycle
	feed(tr, 0, 0, 100, hit)
	feed(tr, 0, 0, 500, hit)
	rep := tr.Exposure("labels", "tiny", 4)
	for i := range rep.Buckets {
		label := rep.RangeLabel(i)
		if !strings.HasPrefix(label, "[") {
			t.Fatalf("bucket %d label %q not half-open-rendered", i, label)
		}
		if i == len(rep.Buckets)-1 {
			if !strings.HasSuffix(label, "]") {
				t.Fatalf("last bucket label %q must be inclusive", label)
			}
		} else if !strings.HasSuffix(label, ")") {
			t.Fatalf("bucket %d label %q must exclude its hi endpoint", i, label)
		}
	}

	var sb strings.Builder
	rep.Render(&sb)
	if strings.Contains(sb.String(), "100-") {
		t.Fatalf("render still uses the overlapping lo-hi spelling:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), rep.RangeLabel(0)) {
		t.Fatalf("render missing half-open label %q:\n%s", rep.RangeLabel(0), sb.String())
	}

	sb.Reset()
	rep.RenderCSV(&sb)
	if !strings.HasPrefix(sb.String(), "lo_incl,hi_excl,") {
		t.Fatalf("CSV header does not name the convention: %q", sb.String())
	}
}
