package tsdb

import (
	"sort"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// head is the in-memory block of one series: every reading not yet in a
// segment, as two timestamp-sorted runs. data takes the inserts; sealed
// is what an in-progress Flush is writing — set from data when the flush
// starts, immutable until the flush clears it (segment registered) or
// merges it back (segment write failed), and nil whenever no flush is
// running. spare is an empty buffer no run uses: the array of the run
// the last flush wrote, which the next seal hands to data, so a series
// with a steady rate alternates between two arrays and insert allocates
// nothing. A head has no lock of its own: it belongs to its shard and
// every access happens under headShard.mu. The read methods accept a nil
// head — a topic the shard's map does not hold — as an empty one.
type head struct {
	sealed []sensor.Reading
	data   []sensor.Reading
	spare  []sensor.Reading
}

// spareSlack is how many times the readings of the cycle just flushed a
// run's array may hold and still be kept as the spare: a series whose
// rate fell gives its oversized arrays back within two flushes.
const spareSlack = 4

// seal starts a flush: data becomes the sealed run and the spare takes
// the inserts. It returns the sealed run, empty when there is nothing to
// flush (the head is then left as it was).
func (h *head) seal() []sensor.Reading {
	if len(h.data) == 0 {
		return nil
	}
	h.sealed, h.data, h.spare = h.data, h.spare[:0], nil
	return h.sealed
}

// release ends a successful flush: the sealed run is in a segment, and
// its array — which the segment writer is done reading — becomes the
// spare unless the cycle used too little of it.
func (h *head) release() {
	if n := len(h.sealed); n > 0 && cap(h.sealed) <= spareSlack*n {
		h.spare = h.sealed[:0]
	}
	h.sealed = nil
}

// runs returns the two sorted runs, older arrivals first: readers visit
// sealed before data so equal timestamps come out in arrival order.
func (h *head) runs() [2][]sensor.Reading {
	if h == nil {
		return [2][]sensor.Reading{}
	}
	return [2][]sensor.Reading{h.sealed, h.data}
}

// insert places readings at their sorted positions in data (append-fast
// for the common in-order case).
func (h *head) insert(rs []sensor.Reading) {
	for _, r := range rs {
		n := len(h.data)
		if n == 0 || h.data[n-1].Time <= r.Time {
			h.data = append(h.data, r)
			continue
		}
		i := sort.Search(n, func(i int) bool { return h.data[i].Time > r.Time })
		h.data = append(h.data, sensor.Reading{})
		copy(h.data[i+1:], h.data[i:])
		h.data[i] = r
	}
}

// unseal ends a failed flush: sealed goes back in front of whatever
// arrived meanwhile, by one linear merge that keeps sealed before data
// on equal timestamps (arrival order). With nothing newer — or nothing
// older than the sealed tail — no reading is moved at all. Either way
// everything ends up in one array, and the one data was using goes back
// to being the spare.
func (h *head) unseal() {
	a, b := h.sealed, h.data
	h.sealed = nil
	if len(a) == 0 {
		return
	}
	h.spare = b[:0]
	switch {
	case len(b) == 0:
		h.data = a
	case a[len(a)-1].Time <= b[0].Time:
		h.data = append(a, b...)
	default:
		out := make([]sensor.Reading, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			if b[0].Time < a[0].Time {
				out, b = append(out, b[0]), b[1:]
			} else {
				out, a = append(out, a[0]), a[1:]
			}
		}
		h.data = append(append(out, a...), b...)
	}
}

// appendRange appends the readings within [t0, t1] to dst: sorted
// unless an out-of-order arrival landed behind the sealed run's tail,
// which Range's final order check repairs.
func (h *head) appendRange(t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	for _, run := range h.runs() {
		lo := sort.Search(len(run), func(i int) bool { return run[i].Time >= t0 })
		hi := sort.Search(len(run), func(i int) bool { return run[i].Time > t1 })
		dst = append(dst, run[lo:hi]...)
	}
	return dst
}

// latest returns the newest reading at or after floor; on equal
// timestamps the later arrival.
func (h *head) latest(floor int64) (best sensor.Reading, found bool) {
	for _, run := range h.runs() {
		if n := len(run); n > 0 && run[n-1].Time >= floor && (!found || run[n-1].Time >= best.Time) {
			best, found = run[n-1], true
		}
	}
	return best, found
}

// countFrom returns how many readings are at or after floor.
func (h *head) countFrom(floor int64) int {
	n := 0
	for _, run := range h.runs() {
		n += len(run) - sort.Search(len(run), func(i int) bool { return run[i].Time >= floor })
	}
	return n
}

// aggregate reduces the readings within [t0, t1], one pass per run.
func (h *head) aggregate(t0, t1 int64) store.AggResult {
	var a store.AggResult
	for _, run := range h.runs() {
		a.Merge(store.AggregateSorted(run, t0, t1))
	}
	return a
}

// prune drops readings strictly older than cutoff, returning how many.
// Flush and Prune exclude each other, so there is no sealed run to trim.
func (h *head) prune(cutoff int64) int {
	lo := sort.Search(len(h.data), func(i int) bool { return h.data[i].Time >= cutoff })
	if lo > 0 {
		h.data = append(h.data[:0], h.data[lo:]...)
	}
	return lo
}
