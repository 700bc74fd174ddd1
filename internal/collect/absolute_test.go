package collect

import (
	"slices"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// TestAbsoluteAfterLateBatch: a batch that arrives late lands at the end
// of the agent's cache ring, out of time order, while the Storage
// Backend files it in place. Every absolute query of the agent's Query
// Engine, bound and unbound, must give the backend's answer, which is
// the true one: [4 s, 5 s] holds two readings and [3 s, 3 s] the late
// one.
func TestAbsoluteAfterLateBatch(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const topic = sensor.Topic("/r1/n1/power")
	sec := int64(time.Second)
	at := func(s int64) sensor.Reading { return sensor.Reading{Value: float64(s), Time: s * sec} }
	a.IngestBatch(topic, []sensor.Reading{at(0), at(1), at(2), at(4), at(5)})
	a.IngestBatch(topic, []sensor.Reading{at(3)})

	b := a.QE.Bind(topic)
	for _, w := range []struct {
		t0, t1 int64
		want   []float64
	}{
		{4 * sec, 5 * sec, []float64{4, 5}},
		{3 * sec, 3 * sec, []float64{3}},
	} {
		db := a.DB.Range(topic, w.t0, w.t1, nil)
		var vals []float64
		for _, r := range db {
			vals = append(vals, r.Value)
		}
		if !slices.Equal(vals, w.want) {
			t.Fatalf("[%d, %d]: DB holds %v, want %v", w.t0, w.t1, vals, w.want)
		}
		for name, got := range map[string][]sensor.Reading{
			"unbound": a.QE.QueryAbsolute(topic, w.t0, w.t1, nil),
			"bound":   b.QueryAbsolute(w.t0, w.t1, nil),
		} {
			if !slices.Equal(got, db) {
				t.Errorf("[%d, %d] %s QueryAbsolute = %v, DB %v", w.t0, w.t1, name, got, db)
			}
		}
		wantAgg := a.DB.Aggregate(topic, w.t0, w.t1)
		for name, got := range map[string]store.AggResult{
			"unbound": a.QE.AggregateAbsolute(topic, w.t0, w.t1),
			"bound":   b.AggregateAbsolute(w.t0, w.t1),
		} {
			if got != wantAgg {
				t.Errorf("[%d, %d] %s AggregateAbsolute = %+v, DB %+v", w.t0, w.t1, name, got, wantAgg)
			}
		}
		wantDS := a.DB.Downsample(topic, w.t0, w.t1, sec, nil)
		for name, got := range map[string][]store.Bucket{
			"unbound": a.QE.Downsample(topic, w.t0, w.t1, sec, nil),
			"bound":   b.Downsample(w.t0, w.t1, sec, nil),
		} {
			if !slices.Equal(got, wantDS) {
				t.Errorf("[%d, %d] %s Downsample = %+v, DB %+v", w.t0, w.t1, name, got, wantDS)
			}
		}
	}
}
