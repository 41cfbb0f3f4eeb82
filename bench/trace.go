package main

// The traced run's span recorder. The harness records a span around
// each call it makes into a layer; spans stay in memory and are written
// once, at exit. End-to-end metrics are never taken with a tracer
// attached: a nil *tracer records nothing, so traced and untraced passes
// run the same code.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Req is the request the span belongs to (a job key, a
// trace ID or a simulation name); spans of one request share it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part of the interval the span's
	// children cover (children that overlap count once).
	Self int64 `json:"self_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noParent marks a root span, or one whose parent finish resolves by
// containment.
const noParent = -1

// start opens a span and returns its ID. With parent == noParent the
// link is resolved at finish: the span hangs under the tightest span of
// the same request that contains it in time, which is how a handler's
// span on a server goroutine finds the client call that caused it.
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return noParent
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// finish closes spans left open, resolves containment links and
// computes self times. It returns the spans in ID order.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].End < 0 {
			t.spans[i].End = now
		}
	}
	linkByContainment(t.spans)
	computeSelf(t.spans)
	return t.spans
}

// linkByContainment gives each unlinked span that has a request ID the
// tightest same-request span containing it as parent. Within a request,
// spans sorted by (start asc, end desc) nest like brackets, so a stack
// of open ancestors suffices.
func linkByContainment(spans []span) {
	byReq := map[string][]int{}
	for i := range spans {
		if spans[i].Req != "" {
			byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
		}
	}
	for _, ids := range byReq {
		sort.Slice(ids, func(a, b int) bool {
			x, y := &spans[ids[a]], &spans[ids[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return x.ID < y.ID
		})
		var stack []int
		for _, id := range ids {
			s := &spans[id]
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
				stack = stack[:len(stack)-1]
			}
			if s.Parent == noParent && len(stack) > 0 {
				s.Parent = stack[len(stack)-1]
			}
			stack = append(stack, id)
		}
	}
}

// computeSelf sets Self = duration − union of the children's intervals,
// clipped to the parent. Children may run in parallel (jobs under one
// runner.Run), so covered time is the union, not the sum.
func computeSelf(spans []span) {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = max(s.End-s.Start-covered, 0)
	}
}

// traceFile is the on-disk shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	// SelfByName sums self time per span name, in milliseconds: where
	// the traced passes' time went, layer by layer.
	SelfByName  map[string]float64 `json:"self_ms_by_name"`
	CountByName map[string]int     `json:"count_by_name"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path string, host hostInfo, workload string, spans []span) error {
	tf := traceFile{Host: host, Workload: workload, Spans: spans,
		SelfByName: map[string]float64{}, CountByName: map[string]int{}}
	for i := range spans {
		tf.SelfByName[spans[i].Name] += float64(spans[i].Self) / 1e6
		tf.CountByName[spans[i].Name]++
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanDurations returns the durations, in the given unit, of every span
// with the given name.
func spanDurations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].dur())/float64(unit))
		}
	}
	return out
}
