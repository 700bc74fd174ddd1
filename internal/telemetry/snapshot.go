package telemetry

import (
	"sort"
	"strings"
)

// Label is one key=value pair attached to a Sample.
type Label struct {
	Key   string
	Value string
}

// Bucket is one cumulative histogram bucket: Count observations had a
// value <= Le.
type Bucket struct {
	Le    float64
	Count uint64
}

// Sample is one metric series as seen by Snapshot. The Labels and
// Buckets slices are scratch storage owned by the registry iteration —
// valid only for the duration of the visit callback; copy them if you
// need to keep them.
type Sample struct {
	Name   string
	Help   string
	Type   MetricType
	Labels []Label
	// Value carries counter and gauge readings.
	Value float64
	// Count, Sum and Buckets carry histogram readings; Buckets is
	// cumulative and ends with the +Inf bucket (Le = +Inf, Count =
	// Count field).
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snapshot runs the registered updaters, then visits every series in
// the registry in sorted (family name, label values) order. It is the
// single read path shared by WritePrometheus, the REST status
// endpoints and the self-monitoring loop, so every consumer sees the
// same numbers for the same scrape.
//
// The *Sample passed to visit is reused between calls; its slices are
// only valid inside the callback.
func (r *Registry) Snapshot(visit func(*Sample)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.sorted {
		sort.Strings(r.order)
		r.sorted = true
	}
	names := r.order
	upds := r.globalUpdaters
	r.mu.Unlock()

	// Updaters run outside the registry lock: they call into foreign
	// subsystems (backend Stats, scheduler stats) that must not nest
	// under Registry.mu.
	for _, u := range upds {
		u.upd()
	}

	var s Sample
	var counts []uint64
	for _, name := range names {
		counts = r.visit(name, &s, counts, visit)
	}
}

// visit emits every child of the named family into visit, reusing s and
// counts as scratch.
func (r *Registry) visit(name string, s *Sample, counts []uint64, visit func(*Sample)) []uint64 {
	// Copy the child references under the registry lock, then emit (and
	// run func callbacks) outside it: callbacks reach into foreign
	// subsystems whose locks must never nest under Registry.mu.
	r.mu.RLock()
	f := r.families[name]
	if f == nil {
		r.mu.RUnlock()
		return counts
	}
	plain := f.plain
	childKey := append([]string(nil), f.childKey...)
	kids := make([]any, len(childKey))
	for i, k := range childKey {
		kids[i] = f.children[k]
	}
	funcs := append([]*FuncHandle(nil), f.funcs...)
	r.mu.RUnlock()

	s.Name, s.Help, s.Type = f.name, f.help, f.typ

	emit := func(vals []string, child any) []uint64 {
		s.Labels = s.Labels[:0]
		for i, k := range f.keys {
			s.Labels = append(s.Labels, Label{Key: k, Value: vals[i]})
		}
		s.Value, s.Count, s.Sum = 0, 0, 0
		s.Buckets = s.Buckets[:0]
		switch m := child.(type) {
		case *Counter:
			s.Value = float64(m.Value())
		case *Gauge:
			s.Value = m.Value()
		case *Histogram:
			counts = m.BucketCounts(counts)
			var cum uint64
			for i, le := range m.bounds {
				cum += counts[i]
				s.Buckets = append(s.Buckets, Bucket{Le: le, Count: cum})
			}
			s.Count = cum + counts[len(counts)-1]
			s.Sum = m.Sum()
		}
		visit(s)
		return counts
	}

	if plain != nil {
		counts = emit(nil, plain)
	}
	for i, key := range childKey {
		vals := splitKey(key, len(f.keys))
		counts = emit(vals, kids[i])
	}
	// Callback-backed children: group by label values, summing the
	// callbacks that share one label set so multi-instance components
	// aggregate into a single exposition series.
	if len(funcs) > 0 {
		type group struct {
			vals []string
			sum  float64
		}
		groups := map[string]*group{}
		var order []string
		for _, h := range funcs {
			key := strings.Join(h.labels, "\x00")
			g, ok := groups[key]
			if !ok {
				g = &group{vals: h.labels}
				groups[key] = g
				order = append(order, key)
			}
			g.sum += h.fn()
		}
		sort.Strings(order)
		for _, key := range order {
			g := groups[key]
			s.Labels = s.Labels[:0]
			for i, k := range f.keys {
				s.Labels = append(s.Labels, Label{Key: k, Value: g.vals[i]})
			}
			s.Value, s.Count, s.Sum = g.sum, 0, 0
			s.Buckets = s.Buckets[:0]
			s.Name, s.Help, s.Type = f.name, f.help, f.typ
			visit(s)
		}
	}
	return counts
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\x00", n)
}

// Value returns the current value of the named series, summing
// callback-backed children when present. Histograms report their
// observation count. The second result is false when the series does
// not exist. Value does not run updaters; use Snapshot when reading
// several related series consistently. Like Snapshot, it runs the
// callbacks outside the registry lock.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := strings.Join(labelValues, "\x00")
	var (
		child any
		funcs []*FuncHandle
	)
	r.mu.RLock()
	if f := r.families[name]; f != nil {
		if len(labelValues) == 0 && f.plain != nil {
			child = f.plain
		} else if c, ok := f.children[key]; ok {
			child = c
		} else {
			funcs = append(funcs, f.funcs...)
		}
	}
	r.mu.RUnlock()
	switch m := child.(type) {
	case *Counter:
		return float64(m.Value()), true
	case *Gauge:
		return m.Value(), true
	case *Histogram:
		return float64(m.Count()), true
	}
	var sum float64
	found := false
	for _, h := range funcs {
		if strings.Join(h.labels, "\x00") == key {
			sum += h.fn()
			found = true
		}
	}
	return sum, found
}
