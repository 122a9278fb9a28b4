package main

import (
	"math"
	"reflect"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one operation share Op; Parent is the
// span that caused this one (0 for an operation's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Prog   string `json:"prog,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t         *tracer
	i         int
	alloc     uint64
	withAlloc bool
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

func (t *tracer) begin(op int64, parent spanRef, name, prog string) spanRef {
	r := t.beginNoAlloc(op, parent, name, prog)
	if r.t != nil {
		r.alloc, _ = runtimeCounters()
		r.withAlloc = true
	}
	return r
}

// beginNoAlloc opens a span without the heap-allocation count, for spans
// so short that reading the runtime counters would dominate them.
func (t *tracer) beginNoAlloc(op int64, parent spanRef, name, prog string) spanRef {
	if t == nil {
		return spanRef{}
	}
	var pid int64
	if parent.t != nil {
		pid = t.spans[parent.i].ID
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: pid, Op: op, Name: name, Prog: prog,
		Start: int64(time.Since(t.t0)),
	})
	return spanRef{t: t, i: len(t.spans) - 1}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	s := &r.t.spans[r.i]
	s.End = int64(time.Since(r.t.t0))
	if r.withAlloc {
		alloc, _ := runtimeCounters()
		s.Alloc = alloc - r.alloc
	}
}

// ms is the closed span's duration.
func (r spanRef) ms() float64 {
	if r.t == nil {
		return 0
	}
	s := r.t.spans[r.i]
	return float64(s.End-s.Start) / 1e6
}

// agg summarizes the spans of one name on one program.
type agg struct {
	n     int
	total time.Duration
	alloc uint64
	durMs []float64
}

// medianMs is the median span duration: robust to the odd span that
// includes a pool miss or a collection.
func (a *agg) medianMs() float64 { return median(a.durMs) }

// byProg groups the spans called name by program.
func (t *tracer) byProg(name string) map[string]*agg {
	out := map[string]*agg{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		a := out[s.Prog]
		if a == nil {
			a = &agg{}
			out[s.Prog] = a
		}
		a.n++
		a.total += time.Duration(s.End - s.Start)
		a.alloc += s.Alloc
		a.durMs = append(a.durMs, float64(s.End-s.Start)/1e6)
	}
	return out
}

// geoMs is the geometric mean across programs of the median duration of
// the spans called name.
func (t *tracer) geoMs(name string) float64 {
	var xs []float64
	for _, a := range t.byProg(name) {
		xs = append(xs, a.medianMs())
	}
	return geomean(xs)
}

// sortedKeys returns m's keys in order, for stable report rows.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// withGeomean appends to rows a row named "geomean" holding the geometric
// mean across programs of every numeric field (element-wise for arrays).
// T is a row struct whose Prog string field names the program.
func withGeomean[T any](rows []*T) []*T {
	if len(rows) == 0 {
		return rows
	}
	var g T
	gv := reflect.ValueOf(&g).Elem()
	gv.FieldByName("Prog").SetString("geomean")
	var cell func(dst reflect.Value, get func(r reflect.Value) reflect.Value)
	cell = func(dst reflect.Value, get func(r reflect.Value) reflect.Value) {
		switch dst.Kind() {
		case reflect.Array:
			for i := 0; i < dst.Len(); i++ {
				cell(dst.Index(i), func(r reflect.Value) reflect.Value { return get(r).Index(i) })
			}
		case reflect.Float64, reflect.Int, reflect.Int64:
			var xs []float64
			for _, r := range rows {
				v := get(reflect.ValueOf(r).Elem())
				if v.CanFloat() {
					xs = append(xs, v.Float())
				} else {
					xs = append(xs, float64(v.Int()))
				}
			}
			if dst.CanFloat() {
				dst.SetFloat(geomean(xs))
			} else {
				dst.SetInt(int64(math.Round(geomean(xs))))
			}
		}
	}
	for i := 0; i < gv.NumField(); i++ {
		cell(gv.Field(i), func(r reflect.Value) reflect.Value { return r.Field(i) })
	}
	return append(rows, &g)
}
