package store

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/dcdb/wintermute/internal/sensor"
)

func TestInsertAndRange(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.InsertBatch("/n/power", []sensor.Reading{{Value: float64(i), Time: int64(i * 100)}})
	}
	got := s.Range("/n/power", 200, 500, nil)
	if len(got) != 4 || got[0].Value != 2 || got[3].Value != 5 {
		t.Fatalf("Range = %+v", got)
	}
	if got := s.Range("/n/power", 5000, 9000, nil); len(got) != 0 {
		t.Fatalf("empty range = %+v", got)
	}
	if got := s.Range("/missing", 0, 100, nil); len(got) != 0 {
		t.Fatalf("missing topic = %+v", got)
	}
	if got := s.Range("/n/power", 500, 200, nil); len(got) != 0 {
		t.Fatalf("inverted range = %+v", got)
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	s := New()
	times := []int64{50, 10, 30, 20, 40, 25}
	for _, ts := range times {
		s.InsertBatch("/x", []sensor.Reading{{Value: float64(ts), Time: ts}})
	}
	got := s.Range("/x", 0, 100, nil)
	if len(got) != len(times) {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("series not ordered: %+v", got)
		}
	}
}

func TestOrderInvariantProperty(t *testing.T) {
	f := func(times []int16) bool {
		s := New()
		for _, ts := range times {
			s.InsertBatch("/t", []sensor.Reading{{Time: int64(ts)}})
		}
		got := s.Range("/t", -40000, 40000, nil)
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Time < got[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLatest(t *testing.T) {
	s := New()
	if _, ok := s.Latest("/x"); ok {
		t.Fatal("missing topic should have no latest")
	}
	s.InsertBatch("/x", []sensor.Reading{{Value: 1, Time: 10}})
	s.InsertBatch("/x", []sensor.Reading{{Value: 2, Time: 20}})
	s.InsertBatch("/x", []sensor.Reading{{Value: 3, Time: 15}}) // out of order
	r, ok := s.Latest("/x")
	if !ok || r.Value != 2 {
		t.Fatalf("Latest = %+v, %v", r, ok)
	}
}

func TestTopicsSorted(t *testing.T) {
	s := New()
	for _, tp := range []sensor.Topic{"/c", "/a", "/b"} {
		s.InsertBatch(tp, []sensor.Reading{{Time: 1}})
	}
	got := s.Topics()
	if len(got) != 3 || got[0] != "/a" || got[2] != "/c" {
		t.Fatalf("Topics = %v", got)
	}
}

func TestPrune(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.InsertBatch("/x", []sensor.Reading{{Time: int64(i)}})
		s.InsertBatch("/y", []sensor.Reading{{Time: int64(i)}})
	}
	removed := s.Prune(5)
	if removed != 10 {
		t.Fatalf("removed = %d, want 10", removed)
	}
	if s.Count("/x") != 5 || s.Count("/y") != 5 {
		t.Fatalf("counts = %d/%d", s.Count("/x"), s.Count("/y"))
	}
	if r, _ := s.Latest("/x"); r.Time != 9 {
		t.Fatal("prune must keep newest data")
	}
	if s.TotalReadings() != 10 {
		t.Fatalf("TotalReadings = %d", s.TotalReadings())
	}
}

func TestPruneDeletesEmptySeries(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.InsertBatch("/old", []sensor.Reading{{Time: int64(i)}})
		s.InsertBatch("/live", []sensor.Reading{{Time: int64(100 + i)}})
	}
	if removed := s.Prune(50); removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	s.mu.RLock()
	_, leaked := s.series["/old"]
	entries := len(s.series)
	s.mu.RUnlock()
	if leaked || entries != 1 {
		t.Fatalf("fully-pruned series leaked: %d entries, /old present=%v", entries, leaked)
	}
	if got := s.Topics(); len(got) != 1 || got[0] != "/live" {
		t.Fatalf("Topics = %v", got)
	}
	// The topic stays usable: a new insert recreates the series.
	s.InsertBatch("/old", []sensor.Reading{{Value: 1, Time: 200}})
	if s.Count("/old") != 1 {
		t.Fatalf("reinsert after prune-delete: Count = %d", s.Count("/old"))
	}
}

func TestPruneInsertRace(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Prune(1 << 60) // everything is older than this cutoff
			}
		}
	}()
	const n = 5000
	for i := 0; i < n; i++ {
		s.InsertBatch("/hot", []sensor.Reading{{Value: float64(i), Time: int64(i)}})
	}
	close(stop)
	wg.Wait()
	// Every reading either survived or was counted out by Prune; none may
	// vanish into an orphaned series.
	if got := s.Count("/hot"); got > n {
		t.Fatalf("Count = %d > %d inserted", got, n)
	}
	s.InsertBatch("/hot", []sensor.Reading{{Value: -1, Time: 1 << 61}})
	if r, ok := s.Latest("/hot"); !ok || r.Value != -1 {
		t.Fatalf("insert after racing prune lost: %+v %v", r, ok)
	}
}

func TestInsertBatch(t *testing.T) {
	s := New()
	rs := []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}}
	s.InsertBatch("/x", rs)
	if s.Count("/x") != 2 {
		t.Fatalf("Count = %d", s.Count("/x"))
	}
	// A burst lands in order, skips empty batches and sorts a late one in.
	s.InsertBatches([]Batch{
		{Topic: "/x", Readings: []sensor.Reading{{Value: 4, Time: 4}}},
		{Topic: "/y", Readings: nil},
		{Topic: "/x", Readings: []sensor.Reading{{Value: 3, Time: 3}}},
	})
	got := s.Range("/x", 0, 10, nil)
	if len(got) != 4 || got[2].Time != 3 || got[3].Time != 4 || s.Count("/y") != 0 {
		t.Fatalf("after burst: /x = %v, /y count %d", got, s.Count("/y"))
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	topics := []sensor.Topic{"/a", "/b", "/c", "/d"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				tp := topics[rng.Intn(len(topics))]
				s.InsertBatch(tp, []sensor.Reading{{Value: float64(i), Time: int64(i)}})
			}
		}(int64(w))
	}
	for i := 0; i < 1000; i++ {
		for _, tp := range topics {
			s.Range(tp, 0, int64(i), nil)
			s.Latest(tp)
		}
	}
	wg.Wait()
	if len(s.Topics()) != 4 {
		t.Fatalf("Topics = %v", s.Topics())
	}
}
