package store

import "testing"

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
