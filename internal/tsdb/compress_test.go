package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
)

// encodeChunk encodes rs as one chunk through a fresh Encoder.
func encodeChunk(rs []sensor.Reading) []byte {
	var enc Encoder
	chunk, _ := enc.AppendChunk(nil, rs)
	return chunk
}

// roundTrip encodes rs and decodes them back, failing on any mismatch,
// and returns the chunk's codec byte. Values are compared as bit
// patterns so NaNs and signed zeros must survive exactly.
func roundTrip(t *testing.T, rs []sensor.Reading) byte {
	t.Helper()
	var enc Encoder
	chunk, codec := enc.AppendChunk(nil, rs)
	it, err := NewIter(chunk)
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
	return codec
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
	if got := len(encodeChunk(rs)); got > 4*len(rs) {
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
		it, err := NewIter(encodeChunk(rs))
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
		it, err := NewIter(encodeChunk(rs))
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
	rs := make([]sensor.Reading, 100)
	for i := range rs {
		rs[i] = sensor.Reading{Time: int64(i) * 1000, Value: float64(i)}
	}
	chunk := encodeChunk(rs)
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
// jumps across every delta-of-delta bucket, and values of one of six
// shapes. Three take the decimal codec: repeated integers, the bench
// generator's walk in tenths, and integers at a random scale stepping
// across every rung of kBuckets. Three take XOR: a walk accumulated in
// floating point, random bit patterns, and a walk in tenths with one
// value that has no decimal scale.
func codecSeries(rng *rand.Rand, n int) []sensor.Reading {
	rs := make([]sensor.Reading, 0, n)
	ts, v := rng.Int63n(1<<40), 100.0
	k, scale := int64(1000), rng.Intn(maxScale+1)
	odd := rng.Intn(n + 1)
	shape := rng.Intn(6)
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
		case 2:
			v = math.Float64frombits(rng.Uint64())
		case 3, 4:
			k += rng.Int63n(7) - 3
			v = float64(k) / 10
			if shape == 4 && i == odd {
				v += 0.01 * math.Pi
			}
		default:
			// A step from each rung of the ladder, or a jump anywhere
			// below 2^53.
			if r := rng.Intn(6); r < 5 {
				w := []uint{3, 6, 13, 25, 40}[r]
				k += rng.Int63n(1<<w) - 1<<(w-1)
			} else {
				k = rng.Int63n(maxK)
			}
			if k >= maxK || k <= -maxK {
				k = 0
			}
			v = float64(k) / math.Pow(10, float64(scale))
		}
		rs = append(rs, sensor.Reading{Time: ts, Value: v})
	}
	return rs
}

// TestCodecMatchesReference holds the accumulator kernel to the bit- and
// byte-at-a-time codec it replaced (compress_ref_test.go), which picks a
// chunk's decimal scale by trying every scale on every value: identical
// chunk bytes for the same series — through a fresh and through a reused
// encoder — identical decoded samples, and on every truncation of the
// chunk the same number of samples before the same verdict.
func TestCodecMatchesReference(t *testing.T) {
	rng := testseed.Rand(t)
	var reused Encoder
	codecs := map[bool]int{}
	for round := 0; round < 3000; round++ {
		rs := codecSeries(rng, rng.Intn(200))
		want := refEncode(rs)
		got := encodeChunk(rs)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d samples encode to %d bytes, reference %d, or differ", round, len(rs), len(got), len(want))
		}
		if again, codec := reused.AppendChunk(nil, rs); !bytes.Equal(again, want) {
			t.Fatalf("round %d: a reused encoder encodes differently from a fresh one", round)
		} else if len(rs) > 0 {
			codecs[codec == codecXOR]++
		}
		// The chunk is the readings', however a head's blocks cut them.
		var blocks [][]sensor.Reading
		for rest := rs; len(rest) > 0; {
			n := 1 + rng.Intn(1+len(rest)/2)
			blocks, rest = append(blocks, rest[:n]), rest[n:]
		}
		if inBlocks, _ := reused.AppendChunk(nil, blocks...); !bytes.Equal(inBlocks, want) {
			t.Fatalf("round %d: %d samples in %d blocks encode differently from one slice", round, len(rs), len(blocks))
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
	if codecs[false] < 500 || codecs[true] < 500 {
		t.Fatalf("%d decimal and %d XOR chunks: both codecs need cover", codecs[false], codecs[true])
	}
}

// TestDecimalScaleProperty writes seeded series at every decimal scale:
// values k/10^e for integers |k| < 2^53, independent or stepping, some
// repeated. Each must round-trip bit for bit, take the decimal codec,
// and at the smallest scale the reference finds every value fits.
func TestDecimalScaleProperty(t *testing.T) {
	rng := testseed.Rand(t)
	for e := 0; e <= maxScale; e++ {
		p := math.Pow(10, float64(e))
		if p != pow10[e] {
			t.Fatalf("pow10[%d] = %v, want %v", e, pow10[e], p)
		}
		for round := 0; round < 25; round++ {
			lim := int64(1) << (1 + rng.Intn(53))
			rs := make([]sensor.Reading, 1+rng.Intn(300))
			ts, k := rng.Int63n(1<<40), rng.Int63n(lim)
			for i := range rs {
				switch rng.Intn(3) {
				case 0:
					k = rng.Int63n(lim)
					if rng.Intn(2) == 0 {
						k = -k
					}
				case 1:
					if k += rng.Int63n(15) - 7; k >= maxK || k <= -maxK {
						k = 0
					}
				}
				ts += rng.Int63n(2 * int64(time.Second))
				rs[i] = sensor.Reading{Time: ts, Value: float64(k) / p}
			}
			codec := roundTrip(t, rs)
			if want := refCodec(rs); codec != want {
				t.Fatalf("scale %d round %d: codec %d, reference %d", e, round, codec, want)
			}
			if codec == codecXOR || int(codec-codecDecimal) > e {
				t.Fatalf("scale %d round %d: values written at scale %d took codec %d", e, round, e, codec)
			}
		}
	}
}

// TestDecimalAdversarial: values at the edges of the decimal codec round
// trip bit for bit and take the codec the reference picks. Those with no
// decimal scale — and any run holding one — take XOR, byte for byte the
// chunk the reference's XOR path writes.
func TestDecimalAdversarial(t *testing.T) {
	const xor = -1
	a, b := 0.1, 0.2 // variables: constant arithmetic would be exact
	big := int64(1<<53 + 1)
	tenths := func(n, at int, odd float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(2000+i%17-i%5) / 10
		}
		vs[at] = odd
		return vs
	}
	cases := []struct {
		name  string
		vs    []float64
		scale int
	}{
		{"negative zero", []float64{1.5, math.Copysign(0, -1), 2}, xor},
		{"positive zero", []float64{0, 0, 0}, 0},
		{"quiet NaN payload", []float64{1, math.Float64frombits(0x7ff8000000000001)}, xor},
		{"signalling NaN payload", []float64{math.Float64frombits(0xfff4000000000000), 1}, xor},
		{"NaN", []float64{math.NaN()}, xor},
		{"+Inf", []float64{1, math.Inf(1)}, xor},
		{"-Inf", []float64{math.Inf(-1), 1}, xor},
		{"smallest subnormal", []float64{math.SmallestNonzeroFloat64}, xor},
		{"largest subnormal", []float64{math.Float64frombits(0x000fffffffffffff)}, xor},
		{"±(2^53-1)", []float64{1<<53 - 1, -(1<<53 - 1)}, 0},
		{"2^53", []float64{1 << 53}, xor},
		{"-2^53", []float64{-(1 << 53)}, xor},
		{"2^53+1, rounded to 2^53", []float64{float64(big)}, xor},
		{"-(2^53+1), rounded to -2^53", []float64{-float64(big)}, xor},
		{"0.1+0.2", []float64{a + b}, xor},
		{"0.1+0.2 in a long run of tenths", tenths(1000, 617, a+b), xor},
		{"0.1+0.2 first in a long run of tenths", tenths(1000, 0, a+b), xor},
		{"one hundredth in a long run of tenths", tenths(1000, 617, 12.34), 2},
		{"largest scale", []float64{1e-22, 3e-22, -7e-22}, maxScale},
		{"past the largest scale", []float64{1e-23}, xor},
		{"steps past the 4-bit rung", []float64{0, 0.7, -0.1, 0.7, -0.9, 0}, 1},
		{"steps past the 12-bit rung", []float64{0, 2047, -1, 2047, -2050}, 0},
		{"steps past the 24-bit rung", []float64{0, 1 << 23, -1, 1 << 23, -(1 << 23) - 2}, 0},
		{"steps of 2^54-2", []float64{-(1<<53 - 1), 1<<53 - 1, -(1<<53 - 1)}, 0},
	}
	for _, c := range cases {
		rs := make([]sensor.Reading, len(c.vs))
		for i, v := range c.vs {
			rs[i] = sensor.Reading{Time: int64(i) * int64(time.Second), Value: v}
		}
		want := byte(codecXOR)
		if c.scale != xor {
			want = codecDecimal + byte(c.scale)
		}
		if got := roundTrip(t, rs); got != want {
			t.Errorf("%s: codec %d, want %d", c.name, got, want)
		}
		if ref := refCodec(rs); ref != want {
			t.Errorf("%s: reference codec %d, want %d", c.name, ref, want)
		}
		if !bytes.Equal(encodeChunk(rs), refEncode(rs)) {
			t.Errorf("%s: chunk differs from the reference's", c.name)
		}
	}
}

// TestDecimalSegmentBytesPerReading flushes 4,096 series × 1,000
// one-decimal readings — the bench generator's walk in tenths, 1 s
// apart — into one segment and holds its size, index included, to 1.2
// bytes per reading. Gorilla XOR alone writes ≈ 5.8.
func TestDecimalSegmentBytesPerReading(t *testing.T) {
	const series, perSeries = 4096, 1000
	rng := testseed.Rand(t)
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	data := make(map[sensor.Topic][]sensor.Reading, series)
	for s := 0; s < series; s++ {
		rs := make([]sensor.Reading, perSeries)
		v := 500 + rng.Int63n(1000)
		for i := range rs {
			if v += rng.Int63n(7) - 3; v < 0 {
				v = -v
			}
			rs[i] = sensor.Reading{Time: base + int64(i)*int64(time.Second), Value: float64(v) / 10}
		}
		data[sensor.Topic(fmt.Sprintf("/r%02d/c%02d/n%02d/power", s/256, s/16%16, s%16))] = rs
	}
	seg, decimal, err := writeSegment(OSFS, t.TempDir(), 1, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if decimal != series {
		t.Fatalf("%d of %d chunks took the decimal codec", decimal, series)
	}
	perReading := float64(seg.size) / (series * perSeries)
	t.Logf("segment: %d bytes, %.3f B/reading", seg.size, perReading)
	if perReading > 1.2 {
		t.Fatalf("segment holds %.3f B/reading, want ≤ 1.2", perReading)
	}
}

// benchWalk is the bench generator's series shape: 1 ms steps, a bounded
// random walk of up to ±3 tenths a step, each value float64(tenths)/10
// (bench/gen.go), so the chunk takes the decimal codec.
func benchWalk(n int) []sensor.Reading {
	rng := rand.New(rand.NewSource(1))
	rs := make([]sensor.Reading, n)
	v := int32(1000)
	for i := range rs {
		v += int32(rng.Intn(7)) - 3
		if v < 0 {
			v = -v
		}
		if v > 2000 {
			v = 4000 - v
		}
		rs[i] = sensor.Reading{Time: int64(i) * int64(time.Millisecond), Value: float64(v) / 10}
	}
	return rs
}

// accumulatedWalk is a walk in steps of 0.1 accumulated in floating
// point: values like 100.19999999999999 have no decimal scale, so the
// chunk takes the XOR path.
func accumulatedWalk(n int) []sensor.Reading {
	rng := rand.New(rand.NewSource(1))
	rs := make([]sensor.Reading, n)
	v := 100.0
	for i := range rs {
		v = math.Max(0, math.Min(200, v+0.1*float64(rng.Intn(3)-1)))
		rs[i] = sensor.Reading{Time: int64(i) * int64(time.Millisecond), Value: v}
	}
	return rs
}

// chunkWalks are the series the chunk benchmarks run: one per codec.
var chunkWalks = []struct {
	name string
	walk func(int) []sensor.Reading
}{{"decimal", benchWalk}, {"accumulated", accumulatedWalk}}

func BenchmarkChunkEncode(b *testing.B) {
	for _, w := range chunkWalks {
		b.Run(w.name, func(b *testing.B) {
			rs := w.walk(6000)
			var enc Encoder
			var chunk []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chunk, _ = enc.AppendChunk(chunk[:0], rs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
			b.ReportMetric(float64(len(chunk))/float64(len(rs)), "B/reading")
		})
	}
}

func BenchmarkChunkDecode(b *testing.B) {
	for _, w := range chunkWalks {
		b.Run(w.name, func(b *testing.B) {
			rs := w.walk(6000)
			chunk := encodeChunk(rs)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, _ := NewIter(chunk)
				for it.Next() {
					sink += it.At().Value
				}
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
			b.ReportMetric(float64(len(chunk))/float64(len(rs)), "B/reading")
		})
	}
}
