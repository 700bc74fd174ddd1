package sensor

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanBasic(t *testing.T) {
	cases := []struct {
		in   string
		want Topic
	}{
		{"", "/"},
		{"/", "/"},
		{"//", "/"},
		{"power", "/power"},
		{"/r01/c01/s01/power", "/r01/c01/s01/power"},
		{"r01/c01/s01/power", "/r01/c01/s01/power"},
		{"/r01//c01///s01/power", "/r01/c01/s01/power"},
		{"/r01/c01/s01/", "/r01/c01/s01/"},
		{"  /r01/c01/ ", "/r01/c01/"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCleanIdempotent(t *testing.T) {
	f := func(raw string) bool {
		once := Clean(raw)
		return Clean(string(once)) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	valid := []Topic{"/", "/power", "/r01/c01/s01/power", "/r01/c01/"}
	for _, v := range valid {
		if err := v.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", v, err)
		}
	}
	invalid := []Topic{"", "power", "/a//b", "/a b", "/a/#", "/a/+/b"}
	for _, v := range invalid {
		if err := v.Validate(); err == nil {
			t.Errorf("Validate(%q) = nil, want error", v)
		}
	}
}

func TestSegmentsDepthName(t *testing.T) {
	tp := Topic("/r01/c02/s03/power")
	segs := tp.Segments()
	if len(segs) != 4 || segs[0] != "r01" || segs[3] != "power" {
		t.Fatalf("Segments = %v", segs)
	}
	if tp.Depth() != 4 {
		t.Errorf("Depth = %d, want 4", tp.Depth())
	}
	if tp.Name() != "power" {
		t.Errorf("Name = %q, want power", tp.Name())
	}
	if Root.Depth() != 0 || Root.Name() != "" {
		t.Errorf("root depth/name wrong: %d %q", Root.Depth(), Root.Name())
	}
}

func TestNodeOfSensor(t *testing.T) {
	if got := Topic("/r01/c02/s03/power").Node(); got != "/r01/c02/s03/" {
		t.Errorf("Node = %q", got)
	}
	if got := Topic("/r01/c02/s03/").Node(); got != "/r01/c02/" {
		t.Errorf("Node of node = %q", got)
	}
	if got := Topic("/power").Node(); got != Root {
		t.Errorf("Node of top-level sensor = %q, want /", got)
	}
	if got := Root.Node(); got != Root {
		t.Errorf("Node of root = %q, want /", got)
	}
}

func TestJoinNodeRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		// Build a two-level component path from constrained names so the
		// property holds for valid topics.
		n1 := "r" + strings.Repeat("x", int(a%4)+1)
		n2 := "s" + strings.Repeat("y", int(b%4)+1)
		node := Root.JoinNode(n1).JoinNode(n2)
		sens := node.Join("power")
		return sens.Node() == node && sens.Name() == "power"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsNodeAsSensor(t *testing.T) {
	if got := Topic("/a/b").AsNode(); got != "/a/b/" {
		t.Errorf("AsNode = %q", got)
	}
	if got := Topic("/a/b/").AsNode(); got != "/a/b/" {
		t.Errorf("AsNode idempotent = %q", got)
	}
	if got := Topic("/a/b/").AsSensor(); got != "/a/b" {
		t.Errorf("AsSensor = %q", got)
	}
	if got := Root.AsSensor(); got != Root {
		t.Errorf("AsSensor(root) = %q", got)
	}
}

func TestHasPrefix(t *testing.T) {
	cases := []struct {
		t, p Topic
		want bool
	}{
		{"/r1/c1/s1/power", "/r1/c1/", true},
		{"/r1/c1/s1/power", "/r1/c1/s1/", true},
		{"/r1/c10/s1/power", "/r1/c1/", false}, // segment-aware
		{"/r1/c1/", "/r1/c1/", true},
		{"/anything", "/", true},
		{"/r2/c1", "/r1/", false},
	}
	for _, c := range cases {
		if got := c.t.HasPrefix(c.p); got != c.want {
			t.Errorf("HasPrefix(%q, %q) = %v, want %v", c.t, c.p, got, c.want)
		}
	}
}

func TestAncestorRelated(t *testing.T) {
	if !Ancestor("/r1/", "/r1/c1/s1/") {
		t.Error("rack should be ancestor of node")
	}
	if Ancestor("/r1/c1/s1/", "/r1/") {
		t.Error("node is not ancestor of rack")
	}
	if Ancestor("/r1/", "/r1/") {
		t.Error("ancestor is strict")
	}
	if Ancestor("/r1/c1/s1", "/r1/c1/s1/x") {
		t.Error("a sensor is never an ancestor")
	}
	if !Related("/r1/", "/r1/c1/") || !Related("/r1/c1/", "/r1/") {
		t.Error("Related should be symmetric on ancestry")
	}
	if !Related("/r1/c1/", "/r1/c1/") {
		t.Error("Related should include equality")
	}
	if Related("/r1/c1/", "/r1/c2/") {
		t.Error("siblings are not related")
	}
}

func TestRelatedProperty(t *testing.T) {
	// For any pair of nodes built by extending a common base, the deeper one
	// is related to the base but two diverging extensions are not.
	f := func(n uint8) bool {
		base := Root.JoinNode("r1")
		left := base.JoinNode("a")
		right := base.JoinNode("b")
		deep := left
		for i := 0; i < int(n%5); i++ {
			deep = deep.JoinNode("x")
		}
		return Related(base, deep) && !Related(left, right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
