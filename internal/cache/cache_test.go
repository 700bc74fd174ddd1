package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

const sec = int64(time.Second)

// fill stores n readings with value i and timestamp i seconds.
func fill(c *Cache, n int) {
	for i := 0; i < n; i++ {
		c.StoreBatch([]sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
}

func TestStoreAndLatest(t *testing.T) {
	c := New(4, time.Second)
	if _, ok := c.Latest(); ok {
		t.Fatal("empty cache should have no latest")
	}
	fill(c, 3)
	r, ok := c.Latest()
	if !ok || r.Value != 2 {
		t.Fatalf("Latest = %+v, %v", r, ok)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEviction(t *testing.T) {
	c := New(4, time.Second)
	fill(c, 10)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	rs := c.ViewRelative(time.Hour, nil)
	latest, _ := c.Latest()
	if rs[0].Value != 6 || latest.Value != 9 {
		t.Fatalf("oldest/latest = %v/%v, want 6/9", rs[0].Value, latest.Value)
	}
}

func TestViewRelative(t *testing.T) {
	c := New(16, time.Second)
	fill(c, 10)
	// Lookback 0 -> only the newest reading.
	got := c.ViewRelative(0, nil)
	if len(got) != 1 || got[0].Value != 9 {
		t.Fatalf("lookback 0: %+v", got)
	}
	// Lookback 3s -> 4 readings (6..9).
	got = c.ViewRelative(3*time.Second, nil)
	if len(got) != 4 || got[0].Value != 6 || got[3].Value != 9 {
		t.Fatalf("lookback 3s: %+v", got)
	}
	// Lookback larger than history -> everything.
	got = c.ViewRelative(time.Hour, nil)
	if len(got) != 10 {
		t.Fatalf("lookback 1h: %d readings", len(got))
	}
}

func TestViewRelativeAcrossWrap(t *testing.T) {
	c := New(8, time.Second)
	fill(c, 13) // readings 5..12 survive, buffer wrapped
	got := c.ViewRelative(time.Hour, nil)
	if len(got) != 8 {
		t.Fatalf("got %d readings", len(got))
	}
	for i, r := range got {
		if r.Value != float64(5+i) {
			t.Fatalf("reading %d = %v, want %d (chronological order)", i, r.Value, 5+i)
		}
	}
}

func TestViewAbsolute(t *testing.T) {
	c := New(32, time.Second)
	fill(c, 20)
	got := c.ViewAbsolute(5*sec, 8*sec, nil)
	if len(got) != 4 || got[0].Value != 5 || got[3].Value != 8 {
		t.Fatalf("absolute [5s,8s]: %+v", got)
	}
	// Range before all data.
	if got := c.ViewAbsolute(-10*sec, -1*sec, nil); len(got) != 0 {
		t.Fatalf("range before data: %+v", got)
	}
	// Range after all data.
	if got := c.ViewAbsolute(100*sec, 200*sec, nil); len(got) != 0 {
		t.Fatalf("range after data: %+v", got)
	}
	// Inverted range.
	if got := c.ViewAbsolute(8*sec, 5*sec, nil); len(got) != 0 {
		t.Fatalf("inverted range: %+v", got)
	}
	// Exact single point.
	got = c.ViewAbsolute(7*sec, 7*sec, nil)
	if len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("point query: %+v", got)
	}
}

func TestViewAbsoluteAfterEviction(t *testing.T) {
	c := New(8, time.Second)
	fill(c, 20) // 12..19 remain
	got := c.ViewAbsolute(0, 13*sec, nil)
	if len(got) != 2 || got[0].Value != 12 || got[1].Value != 13 {
		t.Fatalf("absolute after eviction: %+v", got)
	}
}

// TestViewModesAgree is the key invariant behind Figure 5: relative and
// absolute modes must return identical data for equivalent windows.
func TestViewModesAgree(t *testing.T) {
	f := func(capSeed, nSeed, lookSeed uint16) bool {
		capacity := int(capSeed%64) + 2
		n := int(nSeed % 200)
		look := time.Duration(lookSeed%100) * time.Second
		c := New(capacity, time.Second)
		fill(c, n)
		rel := c.ViewRelative(look, nil)
		latest, ok := c.Latest()
		if !ok {
			return len(rel) == 0
		}
		abs := c.ViewAbsolute(latest.Time-int64(look), latest.Time, nil)
		if len(rel) != len(abs) {
			return false
		}
		for i := range rel {
			if rel[i] != abs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChronologicalOrderProperty checks that views are always sorted by
// timestamp regardless of ring wrap state.
func TestChronologicalOrderProperty(t *testing.T) {
	f := func(capSeed, nSeed uint16) bool {
		capacity := int(capSeed%32) + 1
		n := int(nSeed % 150)
		c := New(capacity, time.Second)
		fill(c, n)
		v := c.ViewRelative(time.Hour, nil)
		for i := 1; i < len(v); i++ {
			if v[i].Time < v[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDstReuse(t *testing.T) {
	c := New(8, time.Second)
	fill(c, 8)
	buf := make([]sensor.Reading, 0, 16)
	got := c.ViewRelative(time.Hour, buf)
	if len(got) != 8 {
		t.Fatalf("got %d", len(got))
	}
	if cap(got) != cap(buf) {
		t.Errorf("view should reuse caller buffer when capacity allows")
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, time.Second) },
		func() { New(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	c1 := s.GetOrCreate("/n1/power", 8, time.Second)
	c2 := s.GetOrCreate("/n1/power", 16, time.Second)
	if c1 != c2 {
		t.Error("GetOrCreate should return the existing cache")
	}
	if c2.Capacity() != 8 {
		t.Error("existing cache parameters must be preserved")
	}
	if got, ok := s.Get("/n1/power"); !ok || got != c1 {
		t.Error("Get mismatch")
	}
	if _, ok := s.Get("/nope"); ok {
		t.Error("Get of a missing cache should report false")
	}
	if len(s.Topics()) != 1 {
		t.Error("Topics length mismatch")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128, time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(i), Time: int64(i)}})
		}
	}()
	var buf []sensor.Reading
	for i := 0; i < 2000; i++ {
		buf = c.ViewRelative(time.Second, buf[:0])
		c.ViewAbsolute(0, int64(i), nil)
		c.Latest()
		c.AggregateRelative(time.Second)
	}
	<-done
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	rng := rand.New(rand.NewSource(1))
	topics := []sensor.Topic{"/a", "/b", "/c", "/d"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.GetOrCreate(topics[rng.Intn(len(topics))], 16, time.Second)
		}
	}()
	for i := 0; i < 2000; i++ {
		for _, tp := range topics {
			if c, ok := s.Get(tp); ok {
				c.StoreBatch([]sensor.Reading{{Value: 1, Time: int64(i)}})
			}
		}
		s.Topics()
	}
	<-done
}
