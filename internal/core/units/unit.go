package units

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Unit is a concrete analysis unit: a node of the sensor tree together
// with fully-resolved input and output sensor topics (paper §III-B). Units
// are immutable once built; operators attach per-unit model state in their
// own structures, keyed by the unit name.
type Unit struct {
	// Name is the component path of the tree node the unit represents,
	// e.g. /r03/c02/s02/.
	Name sensor.Topic
	// Inputs are the sensors providing data for the analysis.
	Inputs []sensor.Topic
	// Outputs are the sensors delivering the results of the analysis.
	Outputs []sensor.Topic

	// binding holds the Query Engine's resolved sensor handles for this
	// unit (an opaque *core.BoundUnit; this package cannot name the type
	// without an import cycle). It lives on the unit rather than in a
	// side table so that dynamic-unit operators, which replace their unit
	// set every tick, cannot leak bindings: each one is garbage-collected
	// together with its unit.
	binding atomic.Value
}

// Binding returns the opaque binding attached to the unit, or nil.
func (u *Unit) Binding() any { return u.binding.Load() }

// Bind attaches b as the unit's binding if none is attached yet and
// returns the winning binding — b, or the one a concurrent binder
// attached first.
func (u *Unit) Bind(b any) any {
	if u.binding.CompareAndSwap(nil, b) {
		return b
	}
	return u.binding.Load()
}

// String renders the unit compactly for logs and the REST API.
func (u *Unit) String() string {
	var b strings.Builder
	b.WriteString(string(u.Name))
	b.WriteString(" in[")
	for i, t := range u.Inputs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(t))
	}
	b.WriteString("] out[")
	for i, t := range u.Outputs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(t))
	}
	b.WriteByte(']')
	return b.String()
}

// Template is a pattern unit: the abstract I/O specification from which
// concrete units are instantiated (paper §III-C). Templates are
// independent of where the model runs and of the actual sensors; they
// specify only hierarchical relationships.
type Template struct {
	Inputs  []Pattern
	Outputs []Pattern
	// Unit, when set, binds the template to that one node in place of
	// the domain of its patterns.
	Unit sensor.Topic
	// Derive, when set, gives each unit its outputs from its resolved
	// inputs in place of the output patterns, and the unit domain comes
	// from the inputs: sensor-transform plugins (e.g. smoothing) publish
	// derived sensors next to each input this way. A unit it gives no
	// output cannot be built.
	Derive func(u *Unit) []sensor.Topic
}

// NewTemplate parses input and output pattern expressions into a template.
func NewTemplate(inputs, outputs []string) (*Template, error) {
	in, err := ParseAll(inputs)
	if err != nil {
		return nil, fmt.Errorf("units: inputs: %w", err)
	}
	out, err := ParseAll(outputs)
	if err != nil {
		return nil, fmt.Errorf("units: outputs: %w", err)
	}
	return &Template{Inputs: in, Outputs: out}, nil
}

// ResolveFor builds the single unit bound to the given component path,
// resolving every input and output pattern relative to it. Inputs must
// exist in the sensor tree; outputs are constructed unconditionally.
func (t *Template) ResolveFor(nv *navigator.Navigator, unitPath sensor.Topic) (*Unit, error) {
	node, ok := nv.Resolve(unitPath)
	if !ok {
		return nil, fmt.Errorf("units: unknown unit node %q", unitPath)
	}
	return t.resolveNode(nv, node)
}

func (t *Template) resolveNode(nv *navigator.Navigator, node *navigator.Node) (*Unit, error) {
	u := &Unit{Name: node.Path()}
	for _, p := range t.Inputs {
		topics, err := p.resolveFor(nv, node, true)
		if err != nil {
			return nil, err
		}
		u.Inputs = append(u.Inputs, topics...)
	}
	if t.Derive != nil {
		if u.Outputs = t.Derive(u); len(u.Outputs) == 0 {
			return nil, fmt.Errorf("units: no output derived for unit %q", u.Name)
		}
		return u, nil
	}
	for _, p := range t.Outputs {
		topics, err := p.resolveFor(nv, node, false)
		if err != nil {
			return nil, err
		}
		u.Outputs = append(u.Outputs, topics...)
	}
	return u, nil
}

// Instantiate generates the concrete units of the template against a
// sensor tree, following the unit-generation steps of paper §V-C2:
//
//  1. the unit domain is computed over the tree: the domain of the first
//     level-anchored output pattern (of the first input pattern under
//     Derive), the root when there is none, or the Unit node;
//  2. one candidate unit is created for each node in that domain;
//  3. each candidate's inputs and outputs are resolved relative to its
//     node; candidates whose inputs cannot all be bound are dropped (the
//     unit "cannot be built").
//
// prev are the units an earlier call returned, and the result extends
// them: a unit of prev whose node resolves to other inputs or outputs now
// is replaced by a new unit of the same name, one that resolves the same
// or not at all is kept as it is, and no unit is ever removed. A node of
// the domain that no unit of prev names adds a unit. The result is sorted
// by name. An empty domain yields no unit and no error; Instantiate fails
// only on a template without outputs (without inputs under Derive), or
// when the domain has nodes but no unit at all could be built.
func (t *Template) Instantiate(nv *navigator.Navigator, prev []*Unit) ([]*Unit, error) {
	if t.Derive == nil && len(t.Outputs) == 0 {
		return nil, fmt.Errorf("units: template has no output patterns")
	}
	if t.Derive != nil && len(t.Inputs) == 0 {
		return nil, fmt.Errorf("units: template has no input patterns")
	}
	built := make([]*Unit, 0, len(prev))
	known := make(map[sensor.Topic]bool, len(prev))
	for _, u := range prev {
		known[u.Name] = true
		if nu, err := t.ResolveFor(nv, u.Name); err == nil && !nu.sameSensors(u) {
			u = nu
		}
		built = append(built, u)
	}
	var firstErr error
	for _, node := range t.unitDomain(nv) {
		if known[node.Path()] {
			continue
		}
		u, err := t.resolveNode(nv, node)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		built = append(built, u)
	}
	if len(built) == 0 && firstErr != nil {
		return nil, fmt.Errorf("units: no unit could be built: %w", firstErr)
	}
	sort.Slice(built, func(i, j int) bool { return built[i].Name < built[j].Name })
	return built, nil
}

// sameSensors reports whether u and v have the same inputs and outputs.
func (u *Unit) sameSensors(v *Unit) bool {
	return slices.Equal(u.Inputs, v.Inputs) && slices.Equal(u.Outputs, v.Outputs)
}

// unitDomain returns the tree nodes that become unit names: the Unit
// node, if it exists; else the domain of the first level-anchored pattern
// among the outputs (the inputs under Derive), or the root when none is
// level-anchored.
func (t *Template) unitDomain(nv *navigator.Navigator) []*navigator.Node {
	if t.Unit != "" {
		if n, ok := nv.Resolve(t.Unit); ok {
			return []*navigator.Node{n}
		}
		return nil
	}
	ps := t.Outputs
	if t.Derive != nil {
		ps = t.Inputs
	}
	for _, p := range ps {
		if p.Anchor == AnchorTopDown || p.Anchor == AnchorBottomUp {
			return p.Domain(nv)
		}
	}
	return []*navigator.Node{nv.Root()}
}
