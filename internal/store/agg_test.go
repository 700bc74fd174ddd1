package store

import (
	"math/rand"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

func TestAggResultObserveMergeValue(t *testing.T) {
	var a AggResult
	if _, ok := a.Value(AggAvg); ok {
		t.Fatal("empty result answered avg")
	}
	if v, ok := a.Value(AggCount); !ok || v != 0 {
		t.Fatalf("empty count = %v, %v; want 0, true", v, ok)
	}
	for _, v := range []float64{3, -1, 7, 5} {
		a.Observe(v)
	}
	for _, tc := range []struct {
		op   AggOp
		want float64
	}{
		{AggAvg, 3.5}, {AggMin, -1}, {AggMax, 7}, {AggSum, 14}, {AggCount, 4},
	} {
		if v, ok := a.Value(tc.op); !ok || v != tc.want {
			t.Fatalf("%s = %v, %v; want %v", tc.op, v, ok, tc.want)
		}
	}
	var b AggResult
	b.Observe(-10)
	b.Merge(a)
	if b.Count != 5 || b.Min != -10 || b.Max != 7 || b.Sum != 4 {
		t.Fatalf("merged = %+v", b)
	}
	empty := AggResult{}
	b2 := b
	b.Merge(empty)
	if b != b2 {
		t.Fatal("merging the identity changed the accumulator")
	}
	empty.Merge(b2)
	if empty != b2 {
		t.Fatal("merging into the identity did not copy")
	}
}

func TestParseAggOp(t *testing.T) {
	for _, s := range []string{"avg", "mean", "min", "max", "sum", "count"} {
		if _, err := ParseAggOp(s); err != nil {
			t.Fatalf("ParseAggOp(%q): %v", s, err)
		}
	}
	for _, op := range []AggOp{AggAvg, AggMin, AggMax, AggSum, AggCount} {
		back, err := ParseAggOp(op.String())
		if err != nil || back != op {
			t.Fatalf("round trip %v -> %q -> %v, %v", op, op.String(), back, err)
		}
	}
	if _, err := ParseAggOp("median"); err == nil {
		t.Fatal("ParseAggOp accepted median")
	}
}

// TestStoreAggregateMatchesNaive drives the in-memory store's native
// streaming implementation against the materializing reference over
// randomized series.
func TestStoreAggregateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(0)
	var maxT int64
	for i := 0; i < 3000; i++ {
		ts := rng.Int63n(10_000)
		if ts > maxT {
			maxT = ts
		}
		s.Insert("/n/power", sensor.Reading{Time: ts, Value: float64(rng.Intn(500))})
	}
	for trial := 0; trial < 50; trial++ {
		t0 := rng.Int63n(maxT) - 100
		t1 := t0 + rng.Int63n(maxT/2+1)
		got := s.Aggregate("/n/power", t0, t1)
		want := AggregateNaive(s, "/n/power", t0, t1)
		if got != want {
			t.Fatalf("Aggregate(%d, %d) = %+v, naive %+v", t0, t1, got, want)
		}
		step := []int64{1, 9, 250, 5000}[rng.Intn(4)]
		gotB := s.Downsample("/n/power", t0, t1, step, nil)
		wantB := DownsampleNaive(s, "/n/power", t0, t1, step, nil)
		if len(gotB) != len(wantB) {
			t.Fatalf("Downsample(%d, %d, %d): %d buckets, naive %d", t0, t1, step, len(gotB), len(wantB))
		}
		for i := range gotB {
			if gotB[i] != wantB[i] {
				t.Fatalf("bucket %d = %+v, naive %+v", i, gotB[i], wantB[i])
			}
		}
	}
	if got := s.Aggregate("/missing", 0, maxT); got.Count != 0 {
		t.Fatalf("missing topic aggregate = %+v", got)
	}
	if got := s.Downsample("/n/power", 0, maxT, 0, nil); got != nil {
		t.Fatalf("step 0 yielded buckets: %+v", got)
	}
}
