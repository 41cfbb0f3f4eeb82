// Package metrics is a zero-dependency metrics layer with a Prometheus
// text-exposition writer. It has two kinds of family. Instruments
// (counters, gauges and cumulative histograms, plain or labeled) are
// for what only the metrics layer counts, such as HTTP requests. Walk
// exports what a subsystem already counts (StationStats, CacheStats,
// BackendStatus, gpu.Stats, ...): each family is declared once, in the
// tag of the struct field that holds it, and a scrape calls the
// subsystem's snapshot function once for all of its families. No
// client_golang import — consistent with the repo's stdlib-only stance.
//
// Concurrency: instruments are safe for concurrent use (atomics for the
// hot Inc/Observe paths, a mutex only on labeled-child creation), and a
// scrape never blocks writers. Snapshot functions run on the scraping
// goroutine and must be safe to call concurrently with the code they
// observe.
//
// Exposition order is deterministic: families in registration order (a
// walk's in field order), an instrument's labeled children sorted by
// label values and a walked family's samples in field and row order —
// so golden-file tests can byte-compare a scrape.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as exposed on the TYPE line.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default latency histogram bounds, in seconds:
// half a millisecond to ten seconds, the useful range for an HTTP
// service whose cold jobs simulate for seconds and whose warm jobs
// answer from cache in microseconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// sample is one exposition line (or, for histograms, one child's full
// bucket/sum/count block rendered by the writer).
type sample struct {
	labels []string // label values, parallel to the family's label names
	value  float64
	hist   *histSnapshot
}

type histSnapshot struct {
	uppers []float64 // finite bucket upper bounds
	counts []uint64  // per-bucket (non-cumulative) counts; len(uppers)+1 with the +Inf overflow last
	sum    float64
	count  uint64
}

// family is one registered metric family. An instrument's collect
// snapshots its current samples at scrape time; a walked family reads
// its samples from its source's snapshot.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	collect    func(emit func(sample))
	walked     *walked
}

// Registry holds metric families and writes the text exposition.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// nameRe is the accepted metric/label name shape. Deliberately stricter
// than Prometheus (no uppercase, no colons): every gpulat metric is
// lower_snake_case, and the validator tests enforce it.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_', c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds fams, adjacent and in order.
func (r *Registry) register(fams ...*family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		if !validName(f.name) {
			panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
		}
		for _, l := range f.labelNames {
			if !validName(l) || l == "le" {
				panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, f.name))
			}
		}
		if slices.ContainsFunc(r.families, func(g *family) bool { return g.name == f.name }) {
			panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
		}
		r.families = append(r.families, f)
	}
}

// ---- value cells -----------------------------------------------------

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are a programming error and panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decreased")
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets with the
// canonical _bucket/_sum/_count exposition (the +Inf bucket is
// implicit and always present).
type Histogram struct {
	uppers []float64
	counts []atomic.Uint64 // len(uppers)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	if len(uppers) == 0 {
		uppers = DefBuckets
	}
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic("metrics: histogram buckets must be strictly increasing")
		}
	}
	bs := make([]float64, len(uppers))
	copy(bs, uppers)
	return &Histogram{uppers: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

func (h *Histogram) snapshot() *histSnapshot {
	s := &histSnapshot{
		uppers: h.uppers,
		counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	s.sum = h.sum.Load()
	s.count = h.count.Load()
	return s
}

// ---- labeled vectors -------------------------------------------------

// vec is the shared child map behind the labeled instrument types.
type vec[T any] struct {
	labelNames []string
	mu         sync.Mutex
	children   map[string]*T
	newChild   func() *T
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: got %d label values, want %d (%v)",
			len(values), len(v.labelNames), v.labelNames))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = v.newChild()
		v.children[key] = c
	}
	return c
}

// each visits children sorted by label values (deterministic scrapes).
func (v *vec[T]) each(fn func(values []string, child *T)) {
	v.mu.Lock()
	keys := slices.Sorted(maps.Keys(v.children))
	children := make([]*T, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		var values []string
		if k != "" || len(v.labelNames) > 0 {
			values = strings.Split(k, "\xff")
		}
		fn(values, children[i])
	}
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ vec[Counter] }

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	vec[Histogram]
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// ---- registration ----------------------------------------------------

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: KindCounter,
		collect: func(emit func(sample)) { emit(sample{value: c.Value()}) }})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: KindGauge,
		collect: func(emit func(sample)) { emit(sample{value: g.Value()}) }})
	return g
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec[Counter]{
		labelNames: labels,
		children:   map[string]*Counter{},
		newChild:   func() *Counter { return &Counter{} },
	}}
	r.register(&family{name: name, help: help, kind: KindCounter, labelNames: labels,
		collect: func(emit func(sample)) {
			v.each(func(values []string, c *Counter) {
				emit(sample{labels: values, value: c.Value()})
			})
		}})
	return v
}

// NewHistogramVec registers a labeled histogram family (nil buckets
// selects DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	uppers := newHistogram(buckets).uppers // checked once, copied per child
	v := &HistogramVec{vec[Histogram]{
		labelNames: labels,
		children:   map[string]*Histogram{},
		newChild:   func() *Histogram { return newHistogram(uppers) },
	}}
	r.register(&family{name: name, help: help, kind: KindHistogram, labelNames: labels,
		collect: func(emit func(sample)) {
			v.each(func(values []string, h *Histogram) {
				emit(sample{labels: values, hist: h.snapshot()})
			})
		}})
	return v
}

// Info registers a constant-value gauge pinned at 1 whose labels carry
// build facts (the Prometheus "info metric" idiom, e.g.
// gpulat_build_info{version="...",scheme="..."} 1).
func (r *Registry) Info(name, help string, labels map[string]string) {
	names := slices.Sorted(maps.Keys(labels))
	values := make([]string, len(names))
	for i, k := range names {
		values[i] = labels[k]
	}
	r.register(&family{name: name, help: help, kind: KindGauge, labelNames: names,
		collect: func(emit func(sample)) { emit(sample{labels: values, value: 1}) }})
}

// ---- exposition ------------------------------------------------------

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// writeSample writes one line: the family name and suffix, its labels
// as {a="x",b="y"} (an le pair last for a histogram bucket; no braces
// for none), then value.
func writeSample(b *strings.Builder, f *family, labels []string, suffix, le, value string) {
	names := f.labelNames
	if le != "" {
		names, labels = append(slices.Clip(names), "le"), append(slices.Clip(labels), le)
	}
	b.WriteString(f.name)
	b.WriteString(suffix)
	sep := byte('{')
	for i, n := range names {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[i]))
		b.WriteByte('"')
	}
	if len(names) > 0 {
		b.WriteByte('}')
	}
	b.WriteString(" " + value + "\n")
}

// WriteTo writes the full text exposition (version 0.0.4 format):
// families in registration order, each with its HELP and TYPE lines. It
// takes one snapshot of each walked source.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	var src *source // a source's families are adjacent: take it once per run of them
	var root reflect.Value
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		collect := f.collect
		if w := f.walked; w != nil {
			if w.src != src {
				src, root = w.src, w.src.take()
			}
			collect = func(emit func(sample)) { w.read(root, emit) }
		}
		collect(func(s sample) {
			if f.kind == KindHistogram {
				writeHistogram(&b, f, s)
			} else {
				writeSample(&b, f, s.labels, "", "", formatValue(s.value))
			}
		})
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func writeHistogram(b *strings.Builder, f *family, s sample) {
	h, cum := s.hist, uint64(0)
	for i, upper := range h.uppers {
		cum += h.counts[i]
		writeSample(b, f, s.labels, "_bucket", formatValue(upper), strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.uppers)]
	writeSample(b, f, s.labels, "_bucket", "+Inf", strconv.FormatUint(cum, 10))
	writeSample(b, f, s.labels, "_sum", "", formatValue(h.sum))
	writeSample(b, f, s.labels, "_count", "", strconv.FormatUint(h.count, 10))
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
