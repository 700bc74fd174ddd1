package tsdb

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
)

// roundTrip encodes rs and decodes them back, failing on any mismatch.
// Values are compared as bit patterns so NaNs and signed zeros must
// survive exactly.
func roundTrip(t *testing.T, rs []sensor.Reading) {
	t.Helper()
	app := NewAppender()
	for _, r := range rs {
		app.Append(r)
	}
	it, err := NewIter(app.Bytes())
	if err != nil {
		t.Fatalf("NewIter: %v", err)
	}
	if it.Count() != len(rs) {
		t.Fatalf("Count = %d, want %d", it.Count(), len(rs))
	}
	for i, want := range rs {
		if !it.Next() {
			t.Fatalf("Next = false at sample %d (err %v)", i, it.Err())
		}
		got := it.At()
		if got.Time != want.Time {
			t.Fatalf("sample %d: time = %d, want %d", i, got.Time, want.Time)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("sample %d: value = %x, want %x",
				i, math.Float64bits(got.Value), math.Float64bits(want.Value))
		}
	}
	if it.Next() {
		t.Fatal("iterator yields samples past the count")
	}
	if it.Err() != nil {
		t.Fatalf("Err = %v", it.Err())
	}
}

func TestCompressEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestCompressSingle(t *testing.T) {
	roundTrip(t, []sensor.Reading{{Time: time.Now().UnixNano(), Value: 42.5}})
}

func TestCompressRegularSeries(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	rs := make([]sensor.Reading, 0, 1000)
	for i := 0; i < 1000; i++ {
		rs = append(rs, sensor.Reading{
			Time:  base + int64(i)*int64(time.Second),
			Value: 100 + float64(i%7),
		})
	}
	roundTrip(t, rs)
	// Regularly sampled integer-ish sensors must compress far below the
	// 16 raw bytes per reading — this is the property the on-disk
	// bytes-per-reading acceptance bound rests on.
	app := NewAppender()
	for _, r := range rs {
		app.Append(r)
	}
	if got := len(app.Bytes()); got > 4*len(rs) {
		t.Fatalf("chunk = %d bytes for %d readings (> 4 B/reading)", got, len(rs))
	}
}

func TestCompressSpecialValues(t *testing.T) {
	roundTrip(t, []sensor.Reading{
		{Time: -5, Value: math.Inf(1)},
		{Time: 0, Value: math.Inf(-1)},
		{Time: 1, Value: math.NaN()},
		{Time: 2, Value: math.Copysign(0, -1)},
		{Time: 3, Value: 0},
		{Time: 3, Value: math.MaxFloat64},
		{Time: 4, Value: math.SmallestNonzeroFloat64},
	})
}

func TestCompressIdenticalTimestamps(t *testing.T) {
	rs := make([]sensor.Reading, 50)
	for i := range rs {
		rs[i] = sensor.Reading{Time: 1234, Value: float64(i)}
	}
	roundTrip(t, rs)
}

// TestCompressRoundTripProperty feeds random (sorted) series through the
// codec: random jittered timestamps spanning the dod buckets and fully
// random float64 bit patterns for values.
func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]sensor.Reading, 0, int(n))
		ts := rng.Int63n(1 << 40)
		for i := 0; i < int(n); i++ {
			// Mix of regular steps, small jitter and huge jumps so every
			// delta-of-delta bucket (1, 14, 24, 34 and 64 bit) is hit.
			switch rng.Intn(4) {
			case 0:
				ts += int64(time.Second)
			case 1:
				ts += int64(time.Second) + rng.Int63n(2000) - 1000
			case 2:
				ts += rng.Int63n(1 << 34)
			default:
				ts += rng.Int63n(1 << 50)
			}
			rs = append(rs, sensor.Reading{
				Time:  ts,
				Value: math.Float64frombits(rng.Uint64()),
			})
		}
		app := NewAppender()
		for _, r := range rs {
			app.Append(r)
		}
		it, err := NewIter(app.Bytes())
		if err != nil {
			return false
		}
		for _, want := range rs {
			if !it.Next() {
				return false
			}
			got := it.At()
			if got.Time != want.Time ||
				math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				return false
			}
		}
		return !it.Next() && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCompressSortedRandomReadings mirrors how segments are written:
// arbitrary reading sets sorted by time before encoding.
func TestCompressSortedRandomReadings(t *testing.T) {
	f := func(times []int32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]sensor.Reading, 0, len(times))
		for _, ts := range times {
			rs = append(rs, sensor.Reading{Time: int64(ts), Value: rng.NormFloat64() * 1e6})
		}
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
		app := NewAppender()
		for _, r := range rs {
			app.Append(r)
		}
		it, err := NewIter(app.Bytes())
		if err != nil {
			return false
		}
		for _, want := range rs {
			if !it.Next() {
				return false
			}
			got := it.At()
			if got.Time != want.Time ||
				math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				return false
			}
		}
		return !it.Next()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIterTruncatedChunk(t *testing.T) {
	app := NewAppender()
	for i := 0; i < 100; i++ {
		app.Append(sensor.Reading{Time: int64(i) * 1000, Value: float64(i)})
	}
	chunk := app.Bytes()
	it, err := NewIter(chunk[:len(chunk)/2])
	if err != nil {
		t.Fatalf("NewIter: %v", err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() == nil {
		t.Fatal("truncated chunk must surface a decode error")
	}
	if n >= 100 {
		t.Fatalf("decoded %d samples from a half chunk", n)
	}
}

// codecSeries draws one sorted series: a mix of regular steps, jitter and
// jumps across every delta-of-delta bucket, and values that are a
// bounded random walk (the bench generator's shape), repeats, or random
// bit patterns.
func codecSeries(rng *rand.Rand, n int) []sensor.Reading {
	rs := make([]sensor.Reading, 0, n)
	ts, v := rng.Int63n(1<<40), 100.0
	shape := rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			ts += int64(time.Millisecond)
		case 2:
			ts += int64(time.Second) + rng.Int63n(2000) - 1000
		case 3:
			ts += rng.Int63n(1 << 34)
		default:
			ts += rng.Int63n(1 << 50)
		}
		switch shape {
		case 0:
			v += 0.1 * float64(rng.Intn(3)-1)
		case 1:
			if rng.Intn(4) == 0 {
				v = float64(rng.Intn(1000))
			}
		default:
			v = math.Float64frombits(rng.Uint64())
		}
		rs = append(rs, sensor.Reading{Time: ts, Value: v})
	}
	return rs
}

// TestCodecMatchesReference holds the accumulator kernel to the bit- and
// byte-at-a-time codec it replaced (compress_ref_test.go): identical
// chunk bytes for the same series — through a fresh and through a Reset
// appender — identical decoded samples, and on every truncation of the
// chunk the same number of samples before the same verdict.
func TestCodecMatchesReference(t *testing.T) {
	rng := testseed.Rand(t)
	reused := NewAppender()
	for round := 0; round < 3000; round++ {
		rs := codecSeries(rng, rng.Intn(200))
		ref, app := newRefAppender(), NewAppender()
		reused.Reset()
		for i, r := range rs {
			ref.Append(r)
			app.Append(r)
			reused.Append(r)
			if i == len(rs)/2 && !bytes.Equal(app.Bytes(), ref.Bytes()) {
				t.Fatalf("round %d: mid-chunk snapshot differs from the reference after %d samples", round, i+1)
			}
		}
		want := ref.Bytes()
		if got := app.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d samples encode to %d bytes, reference %d, or differ", round, len(rs), len(got), len(want))
		}
		if got := reused.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: a Reset appender encodes differently from a fresh one", round)
		}
		cuts := []int{len(want)}
		for i := 0; i < 4 && len(want) > 0; i++ {
			cuts = append(cuts, rng.Intn(len(want)))
		}
		for _, cut := range cuts {
			rit, rerr := newRefIter(want[:cut])
			it, err := NewIter(want[:cut])
			if (rerr == nil) != (err == nil) {
				t.Fatalf("round %d cut %d/%d: header verdicts differ: %v vs reference %v", round, cut, len(want), err, rerr)
			}
			if err != nil {
				continue
			}
			n := 0
			for rit.Next() {
				if !it.Next() {
					t.Fatalf("round %d cut %d/%d: stopped after %d samples, reference goes on (%v)", round, cut, len(want), n, it.Err())
				}
				if g, w := it.At(), rit.At(); g.Time != w.Time || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
					t.Fatalf("round %d cut %d/%d: sample %d = %+v, reference %+v", round, cut, len(want), n, g, w)
				}
				n++
			}
			if it.Next() {
				t.Fatalf("round %d cut %d/%d: decodes past the reference's %d samples", round, cut, len(want), n)
			}
			if (it.Err() == nil) != (rit.Err() == nil) {
				t.Fatalf("round %d cut %d/%d: after %d samples err = %v, reference %v", round, cut, len(want), n, it.Err(), rit.Err())
			}
		}
	}
}

// benchWalk is the bench generator's series shape: 1 ms steps, a bounded
// random walk in steps of 0.1.
func benchWalk(n int) []sensor.Reading {
	rng := rand.New(rand.NewSource(1))
	rs := make([]sensor.Reading, n)
	v := 100.0
	for i := range rs {
		v = math.Max(0, math.Min(200, v+0.1*float64(rng.Intn(3)-1)))
		rs[i] = sensor.Reading{Time: int64(i) * int64(time.Millisecond), Value: v}
	}
	return rs
}

func BenchmarkChunkEncode(b *testing.B) {
	rs := benchWalk(6000)
	app := NewAppender()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Reset()
		for _, r := range rs {
			app.Append(r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
}

func BenchmarkChunkDecode(b *testing.B) {
	rs := benchWalk(6000)
	app := NewAppender()
	for _, r := range rs {
		app.Append(r)
	}
	chunk := app.Bytes()
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := NewIter(chunk)
		for it.Next() {
			sink += it.At().Time
		}
	}
	_ = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
}
