package metrics

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Walk registers one family per tagged numeric field reachable from T,
// all collected from one call of snapshot per scrape. A field's tag
// declares its family once, as `metric:"name,kind,help"`; kind is
// counter or gauge, and a bool reads 1 or 0. A name may carry one
// constant label, name{label=value}: consecutive fields naming the same
// family are its samples, and only the first gives kind and help. A
// struct field is walked in place; a slice of structs gives each family
// of its element one sample per element. A string field tagged with a
// label name (`metric:"backend"`) labels the families of the fields
// after it. A numeric field without a tag panics, so a new counter
// cannot go unexported by accident; `metric:"-"` skips one. When fields
// are named, only those top-level fields of T are walked.
func Walk[T any](r *Registry, snapshot func() T, fields ...string) {
	w := &walker{walked: walked{src: &source{func() reflect.Value { return reflect.ValueOf(snapshot()) }}}}
	w.walk(reflect.TypeFor[T](), nil, fields)
	r.register(w.fams...)
}

// source is one snapshot function; a scrape calls it once for all the
// families it backs, which Walk registers together.
type source struct{ take func() reflect.Value }

// walked locates a walked family's samples in its source's snapshot.
type walked struct {
	src      *source
	rowsAt   []int   // the row slice; nil: the snapshot is the one row
	labelsAt [][]int // the row's label fields
	cells    []cell  // per sample, the field it reads and its constant label
}

type cell struct {
	at    []int
	label string
}

type walker struct {
	walked
	labels []string
	fams   []*family
}

func (w *walker) walk(t reflect.Type, at []int, fields []string) {
	for i := range t.NumField() {
		f, path := t.Field(i), append(slices.Clip(at), i)
		tag, tagged := f.Tag.Lookup("metric")
		switch k := f.Type.Kind(); {
		case tag == "-" || len(fields) > 0 && !slices.Contains(fields, f.Name):
		case k == reflect.Struct:
			w.walk(f.Type, path, nil)
		case k == reflect.Slice && w.rowsAt == nil:
			rows := &walker{walked: walked{src: w.src, rowsAt: path}}
			rows.walk(f.Type.Elem(), nil, nil)
			w.fams = append(w.fams, rows.fams...)
		case k == reflect.String && tagged:
			w.labelsAt = append(slices.Clip(w.labelsAt), path)
			w.labels = append(slices.Clip(w.labels), tag)
		case k == reflect.Bool || k >= reflect.Int && k <= reflect.Float64:
			if !tagged {
				panic(fmt.Sprintf("metrics: %s.%s is numeric but has no metric tag", t, f.Name))
			}
			w.add(tag, path)
		}
	}
}

// add puts the field at path into the family its tag names.
func (w *walker) add(tag string, path []int) {
	spec, rest, _ := strings.Cut(tag, ",")
	kind, help, _ := strings.Cut(rest, ",")
	name, label, _ := strings.Cut(strings.TrimSuffix(spec, "}"), "{")
	labelName, value, _ := strings.Cut(label, "=")
	if n := len(w.fams); n > 0 && label != "" && w.fams[n-1].name == name {
		w.fams[n-1].walked.cells = append(w.fams[n-1].walked.cells, cell{path, value})
		return
	}
	if Kind(kind) != KindCounter && Kind(kind) != KindGauge {
		panic(fmt.Sprintf("metrics: %s: kind %q is neither counter nor gauge", name, kind))
	}
	wk := w.walked
	wk.cells = []cell{{path, value}}
	f := &family{name: name, help: help, kind: Kind(kind), labelNames: w.labels, walked: &wk}
	if label != "" {
		f.labelNames = append(slices.Clip(w.labels), labelName)
	}
	w.fams = append(w.fams, f)
}

// read emits the family's samples from one snapshot, row by row.
func (f *walked) read(root reflect.Value, emit func(sample)) {
	rows, n := root, 1
	if f.rowsAt != nil {
		rows = root.FieldByIndex(f.rowsAt)
		n = rows.Len()
	}
	for i := range n {
		row := root
		if f.rowsAt != nil {
			row = rows.Index(i)
		}
		for _, c := range f.cells {
			var labels []string
			for _, at := range f.labelsAt {
				labels = append(labels, row.FieldByIndex(at).String())
			}
			if c.label != "" {
				labels = append(labels, c.label)
			}
			emit(sample{labels: labels, value: number(row.FieldByIndex(c.at))})
		}
	}
}

func number(v reflect.Value) float64 {
	if v.Kind() != reflect.Bool {
		return v.Convert(reflect.TypeFor[float64]()).Float()
	}
	if v.Bool() {
		return 1
	}
	return 0
}
