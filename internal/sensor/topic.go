// Package sensor defines the basic monitoring entities shared by every
// component of the DCDB/Wintermute stack: hierarchical topics, timestamped
// readings and sensor metadata.
//
// A topic is a forward-slash-separated path, MQTT-compatible, expressing the
// physical or logical placement of a sensor in an HPC system, for example
//
//	/rack4/chassis2/server3/power
//
// The last segment names the sensor itself; the preceding path identifies
// the component the sensor belongs to. Component (tree node) paths carry a
// trailing slash, e.g. /rack4/chassis2/server3/, mirroring the convention
// used throughout the Wintermute paper.
package sensor

import (
	"errors"
	"strings"
)

// Topic is a slash-separated sensor or component path.
//
// Sensor topics have no trailing slash (/r01/c01/s01/power); component
// paths keep one (/r01/c01/s01/). The root component is "/".
type Topic string

// Root is the path of the root component of the sensor tree.
const Root Topic = "/"

// ErrBadTopic reports a malformed topic string.
var ErrBadTopic = errors.New("sensor: malformed topic")

// Clean normalises a raw topic string: it guarantees a leading slash,
// collapses repeated slashes and trims surrounding whitespace. A trailing
// slash is preserved, since it distinguishes component paths from sensor
// topics. Clean is idempotent.
func Clean(raw string) Topic {
	s := strings.TrimSpace(raw)
	if s == "" {
		return Root
	}
	trailing := strings.HasSuffix(s, "/")
	parts := strings.Split(s, "/")
	segs := parts[:0]
	for _, p := range parts {
		if p != "" {
			segs = append(segs, p)
		}
	}
	if len(segs) == 0 {
		return Root
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for _, p := range segs {
		b.WriteByte('/')
		b.WriteString(p)
	}
	if trailing {
		b.WriteByte('/')
	}
	return Topic(b.String())
}

// Validate reports whether t is a well-formed topic: non-empty, leading
// slash, no empty interior segments and no whitespace inside segments.
func (t Topic) Validate() error {
	if t == Root {
		return nil
	}
	s := string(t)
	if s == "" || s[0] != '/' {
		return ErrBadTopic
	}
	body := strings.TrimSuffix(s[1:], "/")
	if body == "" {
		return ErrBadTopic
	}
	for _, seg := range strings.Split(body, "/") {
		if seg == "" || strings.ContainsAny(seg, " \t\n#+") {
			return ErrBadTopic
		}
	}
	return nil
}

// IsNode reports whether t denotes a component (tree node) path rather than
// a sensor topic. Component paths end with a slash; the root is a node.
func (t Topic) IsNode() bool {
	return t == Root || strings.HasSuffix(string(t), "/")
}

// Segments returns the path segments of t, excluding empty ones. The root
// has no segments.
func (t Topic) Segments() []string {
	if t == Root || t == "" {
		return nil
	}
	s := strings.Trim(string(t), "/")
	if s == "" {
		return nil
	}
	return strings.Split(s, "/")
}

// Depth returns the number of path segments. The root has depth 0; the
// sensor /r01/c01/s01/power has depth 4 and its component /r01/c01/s01/ has
// depth 3.
func (t Topic) Depth() int {
	return len(t.Segments())
}

// Name returns the last segment of the topic: the sensor name for sensor
// topics, the component name for node paths. The root has an empty name.
func (t Topic) Name() string {
	segs := t.Segments()
	if len(segs) == 0 {
		return ""
	}
	return segs[len(segs)-1]
}

// Node returns the component path that contains this topic: for a sensor
// topic its owning component, for a component path its parent component.
// The result always carries a trailing slash. The parent of the root is the
// root itself.
func (t Topic) Node() Topic {
	segs := t.Segments()
	if len(segs) <= 1 {
		return Root
	}
	return Topic("/" + strings.Join(segs[:len(segs)-1], "/") + "/")
}

// Join appends a name to a component path, producing a sensor topic (no
// trailing slash). Join panics if name contains a slash; sensors are always
// leaves.
func (t Topic) Join(name string) Topic {
	if strings.Contains(name, "/") {
		panic("sensor: Join name must not contain '/'")
	}
	if t == Root {
		return Topic("/" + name)
	}
	s := strings.TrimSuffix(string(t), "/")
	return Topic(s + "/" + name)
}

// JoinNode appends a component name to a component path, producing a child
// component path with a trailing slash.
func (t Topic) JoinNode(name string) Topic {
	if strings.Contains(name, "/") {
		panic("sensor: JoinNode name must not contain '/'")
	}
	if t == Root {
		return Topic("/" + name + "/")
	}
	s := strings.TrimSuffix(string(t), "/")
	return Topic(s + "/" + name + "/")
}

// AsNode reinterprets t as a component path, adding the trailing slash if
// missing.
func (t Topic) AsNode() Topic {
	if t.IsNode() {
		return t
	}
	return Topic(string(t) + "/")
}

// AsSensor reinterprets t as a sensor topic, stripping any trailing slash.
// The root cannot be a sensor; AsSensor of the root returns the root.
func (t Topic) AsSensor() Topic {
	if t == Root {
		return Root
	}
	return Topic(strings.TrimSuffix(string(t), "/"))
}

// HasPrefix reports whether t lies inside the component subtree rooted at
// prefix. The comparison is segment-aware: /r1/c10 is not inside /r1/c1/.
func (t Topic) HasPrefix(prefix Topic) bool {
	if prefix == Root {
		return true
	}
	p := strings.TrimSuffix(string(prefix), "/")
	s := string(t)
	if !strings.HasPrefix(s, p) {
		return false
	}
	rest := s[len(p):]
	return rest == "" || rest == "/" || rest[0] == '/'
}

// Ancestor reports whether node a is a strict ancestor of topic b in the
// sensor tree (a and b are expected to be component paths or sensor
// topics; a sensor is never an ancestor).
func Ancestor(a, b Topic) bool {
	if !a.IsNode() {
		return false
	}
	return a != b && b.HasPrefix(a)
}

// Related reports whether two component paths lie on a common root-to-leaf
// path, i.e. one is an ancestor of (or equal to) the other. This is the
// hierarchical-relation test used when resolving pattern units.
func Related(a, b Topic) bool {
	return a == b || Ancestor(a, b) || Ancestor(b, a)
}

// Hash returns the FNV-1a hash of the topic bytes: the shared sharding
// function for every topic-striped structure (cache set shards, tsdb
// head stripes, result-cache version shards), so one topic always lands
// on the same stripe everywhere.
func (t Topic) Hash() uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(t); i++ {
		h ^= uint32(t[i])
		h *= 16777619
	}
	return h
}
