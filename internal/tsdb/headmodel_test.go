package tsdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/testseed"
)

// headOracle is the head as two sorted slices: the sealed run and the
// data run, each in timestamp order with equal timestamps in arrival
// order.
type headOracle struct {
	sealed, data []sensor.Reading
	isSealed     bool
}

// insert places r after every reading of the data run not later than it.
func (o *headOracle) insert(r sensor.Reading) {
	i := sort.Search(len(o.data), func(i int) bool { return o.data[i].Time > r.Time })
	o.data = append(o.data, sensor.Reading{})
	copy(o.data[i+1:], o.data[i:])
	o.data[i] = r
}

func (o *headOracle) runs() [2][]sensor.Reading { return [2][]sensor.Reading{o.sealed, o.data} }

// TestHeadModel drives a head and a headOracle through the same seeded
// script — in-order, late and equal-timestamp inserts that land in the
// first block and around every block boundary, interleaved with seal,
// release, unseal (a failed flush) and prune — and after every step
// holds every read method of the head to the oracle's answer, readings
// compared bit for bit, so arrival order on equal timestamps is checked
// too (every reading's value is its arrival number).
func TestHeadModel(t *testing.T) {
	rng := testseed.Rand(t)
	for round := 0; round < 8; round++ {
		var (
			h       head
			free    freeBlocks
			o       headOracle
			arrival float64
			now     int64 = 1000
		)
		add := func(rs ...sensor.Reading) {
			h.insert(rs, &free)
			for _, r := range rs {
				o.insert(r)
			}
		}
		next := func(tm int64) sensor.Reading {
			arrival++
			return sensor.Reading{Time: tm, Value: arrival}
		}
		for step := 0; step < 300; step++ {
			var what string
			switch k := rng.Intn(20); {
			case k < 5:
				// In order, up to a length that puts the run's end just
				// before, at or just after a block boundary.
				what = "in-order"
				target := blockLen*(1+rng.Intn(3)) + rng.Intn(3) - 1
				n := target - len(o.data)
				if n <= 0 {
					n = 1 + rng.Intn(40)
				}
				rs := make([]sensor.Reading, n)
				for i := range rs {
					now += int64(rng.Intn(3)) // 0: an equal timestamp
					rs[i] = next(now)
				}
				add(rs...)
			case k < 10:
				// Late, at or just before the timestamp of the reading at
				// position 0, 1, blockLen−1, blockLen, blockLen+1, around
				// where a full first block splits, or anywhere of the data
				// run.
				what = "late"
				if len(o.data) == 0 {
					add(next(now))
					break
				}
				half := blockLen / 2
				at := []int{0, 1, blockLen - 1, blockLen, blockLen + 1, half - 1, half, half + 1, half + 2}
				rs := make([]sensor.Reading, 1+rng.Intn(8))
				for i := range rs {
					p := rng.Intn(len(o.data))
					if k := rng.Intn(len(at) + 1); k < len(at) {
						p = at[k]
					}
					if p >= len(o.data) {
						p = len(o.data) - 1
					}
					rs[i] = next(o.data[p].Time - int64(rng.Intn(2)))
				}
				add(rs...)
			case k < 12:
				// A batch of one timestamp, equal to the newest reading.
				what = "equal"
				rs := make([]sensor.Reading, 1+rng.Intn(blockLen+2))
				for i := range rs {
					rs[i] = next(now)
				}
				add(rs...)
			case k < 14:
				what = "seal"
				if o.isSealed {
					break
				}
				run := h.seal()
				if n := runLen(run); n != len(o.data) {
					t.Fatalf("round %d step %d: seal returned %d readings, the data run held %d", round, step, n, len(o.data))
				}
				o.sealed, o.data, o.isSealed = o.data, nil, true
			case k < 16:
				what = "release"
				if !o.isSealed {
					break
				}
				if rng.Intn(2) == 0 {
					free.reset()
				}
				h.release(&free)
				o.sealed, o.isSealed = nil, false
			case k < 18:
				what = "unseal"
				if !o.isSealed {
					break
				}
				h.unseal(&free)
				merged := append(append([]sensor.Reading(nil), o.sealed...), o.data...)
				sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
				o.sealed, o.data, o.isSealed = nil, merged, false
			default:
				what = "prune"
				if o.isSealed || len(o.data) == 0 {
					break
				}
				cutoff := o.data[rng.Intn(len(o.data))].Time + int64(rng.Intn(3)) - 1
				lo := sort.Search(len(o.data), func(i int) bool { return o.data[i].Time >= cutoff })
				if got := h.prune(cutoff, &free); got != lo {
					t.Fatalf("round %d step %d: prune(%d) dropped %d, want %d", round, step, cutoff, got, lo)
				}
				o.data = append([]sensor.Reading(nil), o.data[lo:]...)
			}
			checkHead(t, rng, &h, free, &o, now)
			if t.Failed() {
				t.Fatalf("round %d: diverged after step %d (%s)", round, step, what)
			}
		}
	}
}

func runLen(run [][]sensor.Reading) int {
	n := 0
	for _, b := range run {
		n += len(b)
	}
	return n
}

// checkHead compares every read method of h with the oracle, and checks
// the block structure: no empty or oversized block, each run sorted,
// no block in two places.
func checkHead(t *testing.T, rng *rand.Rand, h *head, free freeBlocks, o *headOracle, now int64) {
	t.Helper()
	owner := map[*sensor.Reading]bool{}
	for _, b := range append(append([][]sensor.Reading(nil), h.blocks...), free...) {
		if a := array(b); a != nil {
			if owner[a] {
				t.Errorf("a block is reachable twice")
				return
			}
			owner[a] = true
		}
	}
	for k, run := range h.runs() {
		for _, b := range run {
			if len(b) == 0 || cap(b) > blockLen {
				t.Errorf("run %d holds a block of %d readings in %d", k, len(b), cap(b))
				return
			}
		}
		if n := runLen(run); n != len(o.runs()[k]) {
			t.Errorf("run %d holds %d readings, the oracle %d", k, n, len(o.runs()[k]))
			return
		}
	}

	// Windows: everything, random ones, an empty one and a reversed one.
	windows := [][2]int64{{math.MinInt64, math.MaxInt64}, {now + 1, now + 10}, {now, now - 5}}
	for i := 0; i < 6; i++ {
		t0 := now - int64(rng.Intn(int(now)+1))
		windows = append(windows, [2]int64{t0, t0 + int64(rng.Intn(2*blockLen))})
	}
	for _, w := range windows {
		t0, t1 := w[0], w[1]
		var want []sensor.Reading
		var wantAgg store.AggResult
		for _, run := range o.runs() {
			for _, r := range run {
				if r.Time >= t0 && r.Time <= t1 {
					want = append(want, r)
				}
			}
			if t0 <= t1 {
				wantAgg.Merge(store.AggregateSorted(run, t0, t1))
			}
		}
		if got := h.appendRange(t0, t1, nil); !sameReadings(got, want) {
			t.Errorf("appendRange(%d, %d): %d readings, want %d", t0, t1, len(got), len(want))
			return
		}
		if t0 > t1 {
			continue
		}
		if got := h.aggregate(t0, t1); got != wantAgg {
			t.Errorf("aggregate(%d, %d) = %+v, want %+v", t0, t1, got, wantAgg)
			return
		}
		if t0 == math.MinInt64 {
			continue
		}
		step := int64(1 + rng.Intn(300))
		lo := t0 + int64(rng.Intn(5))
		for k, run := range h.runs() {
			got := store.AppendBuckets(nil, t0, step, appendWindow(nil, run, lo, t1)...)
			want := store.DownsampleSorted(o.runs()[k], t0, lo, t1, step, nil)
			if len(got) != len(want) {
				t.Errorf("run %d buckets over [%d, %d] step %d: %d, want %d", k, lo, t1, step, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("run %d bucket %d = %+v, want %+v", k, i, got[i], want[i])
					return
				}
			}
		}
	}
	for _, floor := range []int64{math.MinInt64, now - int64(rng.Intn(int(now)+1)), now, now + 1} {
		wantN := 0
		var wantLatest sensor.Reading
		found := false
		for _, run := range o.runs() {
			for _, r := range run {
				if r.Time >= floor {
					wantN++
				}
			}
			if n := len(run); n > 0 && run[n-1].Time >= floor && (!found || run[n-1].Time >= wantLatest.Time) {
				wantLatest, found = run[n-1], true
			}
		}
		if got := h.countFrom(floor); got != wantN {
			t.Errorf("countFrom(%d) = %d, want %d", floor, got, wantN)
			return
		}
		if got, ok := h.latest(floor); ok != found || got != wantLatest {
			t.Errorf("latest(%d) = %+v %v, want %+v %v", floor, got, ok, wantLatest, found)
			return
		}
	}
}
