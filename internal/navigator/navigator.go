// Package navigator maintains the hierarchical sensor-tree representation
// of a monitored HPC system (paper §III-A and §V-B).
//
// Sensor topics are slash-separated paths; each interior path element is a
// system component (rack, chassis, compute node, CPU, ...) and each leaf is
// a sensor. The navigator builds the tree incrementally as sensors are
// registered, exposes depth-based level queries for vertical navigation and
// name filters for horizontal navigation, and answers the
// hierarchical-relation questions needed to resolve pattern units.
package navigator

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Node is a component in the sensor tree: the root, a rack, a chassis, a
// compute node, a CPU, and so on. Leaf sensors hang off nodes; they are not
// nodes themselves.
type Node struct {
	path     sensor.Topic // component path with trailing slash; "/" for root
	depth    int          // 0 for root
	parent   *Node
	children map[string]*Node
	sensors  map[string]sensor.Topic // sensor name -> full topic
}

// Path returns the component path of the node (with trailing slash).
func (n *Node) Path() sensor.Topic { return n.path }

// Depth returns the node's depth in the tree; the root has depth 0.
func (n *Node) Depth() int { return n.depth }

// Name returns the node's own name (last path segment).
func (n *Node) Name() string { return n.path.Name() }

// Parent returns the parent node, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child nodes sorted by name.
func (n *Node) Children() []*Node {
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, name := range names {
		out[i] = n.children[name]
	}
	return out
}

// Sensors returns the topics of the sensors attached directly to this node,
// sorted by name.
func (n *Node) Sensors() []sensor.Topic {
	names := make([]string, 0, len(n.sensors))
	for name := range n.sensors {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]sensor.Topic, len(names))
	for i, name := range names {
		out[i] = n.sensors[name]
	}
	return out
}

// Sensor returns the full topic of the sensor with the given short name
// attached to this node, if present.
func (n *Node) Sensor(name string) (sensor.Topic, bool) {
	t, ok := n.sensors[name]
	return t, ok
}

// Navigator is the concurrency-safe sensor tree. The zero value is not
// usable; construct with New.
type Navigator struct {
	mu       sync.RWMutex
	root     *Node
	byPath   map[sensor.Topic]*Node
	maxDepth int // deepest component depth seen
	nsensors int
	// gen counts the topics AddSensor has created; operators compare it
	// with the value their units were resolved at.
	gen atomic.Uint64
}

// New creates an empty navigator containing only the root component.
func New() *Navigator {
	root := &Node{
		path:     sensor.Root,
		children: make(map[string]*Node),
		sensors:  make(map[string]sensor.Topic),
	}
	return &Navigator{
		root:   root,
		byPath: map[sensor.Topic]*Node{sensor.Root: root},
	}
}

// AddSensor registers a sensor topic, creating any missing intermediate
// component nodes. It is safe to add the same topic repeatedly; only a
// topic it creates advances the Generation.
func (nv *Navigator) AddSensor(topic sensor.Topic) error {
	topic = sensor.Clean(string(topic)).AsSensor()
	if err := topic.Validate(); err != nil {
		return fmt.Errorf("navigator: %w: %q", err, topic)
	}
	segs := topic.Segments()
	if len(segs) == 0 {
		return fmt.Errorf("navigator: cannot add root as a sensor")
	}
	nv.mu.Lock()
	defer nv.mu.Unlock()
	node := nv.root
	for _, s := range segs[:len(segs)-1] {
		child, ok := node.children[s]
		if !ok {
			child = &Node{
				path:     node.path.JoinNode(s),
				depth:    node.depth + 1,
				parent:   node,
				children: make(map[string]*Node),
				sensors:  make(map[string]sensor.Topic),
			}
			node.children[s] = child
			nv.byPath[child.path] = child
			if child.depth > nv.maxDepth {
				nv.maxDepth = child.depth
			}
		}
		node = child
	}
	name := segs[len(segs)-1]
	if _, ok := node.sensors[name]; !ok {
		node.sensors[name] = topic
		nv.nsensors++
		nv.gen.Add(1)
	}
	return nil
}

// AddSensors registers many topics, stopping at the first error.
func (nv *Navigator) AddSensors(topics []sensor.Topic) error {
	for _, t := range topics {
		if err := nv.AddSensor(t); err != nil {
			return err
		}
	}
	return nil
}

// Generation returns a number that changes whenever AddSensor creates a
// topic, and at no other time: a reader that saw the same generation
// twice saw the same tree. It costs one atomic load.
func (nv *Navigator) Generation() uint64 { return nv.gen.Load() }

// Root returns the root node.
func (nv *Navigator) Root() *Node {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	return nv.root
}

// MaxDepth returns the depth of the deepest component node. In the paper's
// level scheme this is the "bottomup" level; "topdown" is depth 1 (the root
// is excluded from pattern navigation).
func (nv *Navigator) MaxDepth() int {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	return nv.maxDepth
}

// NumSensors returns the number of registered sensors.
func (nv *Navigator) NumSensors() int {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	return nv.nsensors
}

// Resolve returns the component node at the given path, if present. The
// path is normalised to node form, so both "/r01/c01" and "/r01/c01/" work.
func (nv *Navigator) Resolve(path sensor.Topic) (*Node, bool) {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	n, ok := nv.byPath[sensor.Clean(string(path)).AsNode()]
	return n, ok
}

// HasSensor reports whether the exact sensor topic is registered. Node
// resolution and the sensor lookup happen under one critical section, so
// the answer reflects a single consistent tree state — the previous
// two-phase locking (resolve, release, re-lock) left a window in which a
// concurrent AddSensor could be half-observed.
func (nv *Navigator) HasSensor(topic sensor.Topic) bool {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	node, ok := nv.byPath[sensor.Clean(string(topic.Node())).AsNode()]
	if !ok {
		return false
	}
	_, ok = node.sensors[topic.Name()]
	return ok
}

// NodesAtDepth returns all component nodes at the given depth, sorted by
// path. Depth 0 returns the root; depths beyond MaxDepth return nil.
func (nv *Navigator) NodesAtDepth(depth int) []*Node {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	if depth < 0 || depth > nv.maxDepth {
		return nil
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.depth == depth {
			out = append(out, n)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(nv.root)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// NodesAtDepthFiltered returns the nodes at the given depth whose name
// matches the filter regexp (horizontal navigation). A nil filter accepts
// every node.
func (nv *Navigator) NodesAtDepthFiltered(depth int, filter *regexp.Regexp) []*Node {
	nodes := nv.NodesAtDepth(depth)
	if filter == nil {
		return nodes
	}
	out := nodes[:0]
	for _, n := range nodes {
		if filter.MatchString(n.Name()) {
			out = append(out, n)
		}
	}
	return out
}

// Related reports whether the two component nodes lie on a common
// root-to-leaf path (one is an ancestor of, or equal to, the other). This
// is the test that binds pattern-expression domains to a unit (paper
// §III-B: input sensors may "belong to any other node in the sensor tree
// connected by an ascending or descending path to the unit node").
func Related(a, b *Node) bool {
	if a == nil || b == nil {
		return false
	}
	return sensor.Related(a.path, b.path)
}

// RelatedAtDepth returns the nodes at the given depth that lie on a common
// root-to-leaf path with n (ancestor, self, or descendant), optionally
// restricted by a name filter. This is the hierarchical binding step of
// pattern-unit resolution, computed by walking the tree from n — O(answer)
// instead of scanning the whole level.
func (nv *Navigator) RelatedAtDepth(n *Node, depth int, filter *regexp.Regexp) []*Node {
	if n == nil || depth < 0 {
		return nil
	}
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	match := func(x *Node) bool {
		return filter == nil || filter.MatchString(x.Name())
	}
	switch {
	case depth == n.depth:
		if match(n) {
			return []*Node{n}
		}
		return nil
	case depth < n.depth:
		x := n
		for x != nil && x.depth > depth {
			x = x.parent
		}
		if x != nil && match(x) {
			return []*Node{x}
		}
		return nil
	default:
		var out []*Node
		var walk func(x *Node)
		walk = func(x *Node) {
			if x.depth == depth {
				if match(x) {
					out = append(out, x)
				}
				return
			}
			for _, c := range x.Children() {
				walk(c)
			}
		}
		walk(n)
		return out
	}
}

// Subtree returns all component nodes in the subtree rooted at n (including
// n itself), in depth-first sorted order.
func (nv *Navigator) Subtree(n *Node) []*Node {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	var out []*Node
	var walk func(x *Node)
	walk = func(x *Node) {
		out = append(out, x)
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// AllSensors returns every registered sensor topic, sorted.
func (nv *Navigator) AllSensors() []sensor.Topic {
	nv.mu.RLock()
	defer nv.mu.RUnlock()
	out := make([]sensor.Topic, 0, nv.nsensors)
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, t := range n.Sensors() {
			out = append(out, t)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(nv.root)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SensorsBelow returns all sensor topics in the subtree rooted at the node
// with the given path, sorted. It returns nil when the path is unknown.
func (nv *Navigator) SensorsBelow(path sensor.Topic) []sensor.Topic {
	n, ok := nv.Resolve(path)
	if !ok {
		return nil
	}
	var out []sensor.Topic
	for _, sub := range nv.Subtree(n) {
		out = append(out, sub.Sensors()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Level converts a paper-style level specification into a tree depth.
// Anchor "topdown" means depth 1 + offset (the root is excluded from
// pattern navigation); anchor "bottomup" means MaxDepth - offset. The
// returned depth is not range-checked; callers decide how to handle empty
// levels.
func (nv *Navigator) Level(topdown bool, offset int) int {
	if topdown {
		return 1 + offset
	}
	return nv.MaxDepth() - offset
}
