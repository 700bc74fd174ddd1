package telemetry

import (
	"sort"
	"strings"
)

// CounterVec is a counter family partitioned by labels. With resolves
// one label combination to its child Counter; resolve once at
// construction and keep the child, never call With on a hot path.
type CounterVec struct {
	r *Registry
	f *family
}

// NewCounterVec registers (or finds) a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	if r == nil {
		return &CounterVec{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, f: r.lookup(name, help, TypeCounter, labelKeys, nil)}
}

// With returns the child counter for the given label values (one per
// label key, in key order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v.f == nil {
		return &Counter{}
	}
	return v.r.child(v.f, labelValues, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family partitioned by labels; every
// child shares the family's bucket bounds.
type HistogramVec struct {
	r      *Registry
	f      *family
	bounds []float64
}

// NewHistogramVec registers (or finds) a labelled histogram family
// with the given bucket upper bounds.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	if r == nil {
		return &HistogramVec{bounds: checkBounds(bounds)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &HistogramVec{r: r, f: r.lookup(name, help, TypeHistogram, labelKeys, checkBounds(bounds)), bounds: bounds}
}

// With returns the child histogram for the given label values,
// creating it on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v.f == nil {
		return newHistogram(v.bounds)
	}
	return v.r.child(v.f, labelValues, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// child finds or creates the child of f for one label-value combination.
func (r *Registry) child(f *family, vals []string, mk func() any) any {
	if len(vals) != len(f.keys) {
		panic("telemetry: " + f.name + ": wrong number of label values")
	}
	key := strings.Join(vals, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]any)
	}
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.childKey = append(f.childKey, key)
		sort.Strings(f.childKey)
	}
	return c
}
