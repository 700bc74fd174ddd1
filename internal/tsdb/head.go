package tsdb

import (
	"sort"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// blockLen is the most readings a head block holds: 512 readings are
// 8 KiB.
const blockLen = 512

// head is the in-memory part of one series: every reading not yet in a
// segment, as a list of blocks of at most blockLen readings each. The
// first nsealed blocks are the sealed run, what an in-progress Flush is
// writing: set by seal, immutable until release (segment registered) or
// unseal (segment write failed), and empty whenever no flush is running.
// The blocks after them are the data run, which takes the inserts. Each
// run is timestamp-sorted across its blocks, equal timestamps in arrival
// order, and no block is empty. Growth chains a block and never copies a
// reading; a late reading moves at most one block's. A head has no lock
// of its own: it belongs to its shard and every access happens under
// headShard.mu. The read methods accept a nil head — a topic the shard's
// map does not hold — as an empty one.
type head struct {
	blocks  [][]sensor.Reading
	nsealed int
}

// freeBlocks holds full-size blocks no head uses, for the inserts of
// its shard to take before allocating. A shard's list is what its last
// flush released plus what prunes and failed flushes freed since, so a
// dense series with a steady rate writes its readings into the blocks
// its last flush wrote, and the list never holds more than one flush's
// worth.
type freeBlocks [][]sensor.Reading

// get returns an empty full-size block.
func (f *freeBlocks) get() []sensor.Reading {
	n := len(*f)
	if n == 0 {
		return make([]sensor.Reading, 0, blockLen)
	}
	b := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return b
}

// put takes back a block no run reaches any more; a smaller one, the
// first block of a sparse series, is left to the collector.
func (f *freeBlocks) put(b []sensor.Reading) {
	if cap(b) == blockLen {
		*f = append(*f, b[:0])
	}
}

// reset drops the blocks nobody took since the last reset, so a shard
// whose series slowed gives back what they no longer fill.
func (f *freeBlocks) reset() {
	clear(*f)
	*f = (*f)[:0]
}

// seal starts a flush: the data run becomes the sealed run, and inserts
// start a new one. It returns the sealed run, empty when there is
// nothing to flush. The run is cut to its length, so no append through
// it can reach the blocks that follow.
func (h *head) seal() [][]sensor.Reading {
	h.nsealed = len(h.blocks)
	return h.blocks[:h.nsealed:h.nsealed]
}

// release ends a successful flush: the sealed run is in a segment, and
// the segment writer is done reading its blocks. A dense series — more
// than a block per flush — refills blocks like them next cycle, so its
// go to free; a sparse series' block is left to the collector.
func (h *head) release(free *freeBlocks) {
	if h.nsealed > 1 {
		for _, b := range h.blocks[:h.nsealed] {
			free.put(b)
		}
	}
	n := copy(h.blocks, h.blocks[h.nsealed:])
	clear(h.blocks[n:])
	h.blocks, h.nsealed = h.blocks[:n], 0
}

// unseal ends a failed flush: the sealed run goes back in front of
// whatever arrived meanwhile. With nothing newer — or nothing older than
// the sealed tail — the two runs already read as one and no reading is
// moved. Otherwise the readings of the data run are inserted into the
// sealed one, in arrival order, so equal timestamps keep sealed before
// data; the blocks they leave go to free.
func (h *head) unseal(free *freeBlocks) {
	ns := h.nsealed
	h.nsealed = 0
	if ns == 0 || ns == len(h.blocks) {
		return
	}
	if last := h.blocks[ns-1]; last[len(last)-1].Time <= h.blocks[ns][0].Time {
		return
	}
	data := append([][]sensor.Reading(nil), h.blocks[ns:]...)
	clear(h.blocks[ns:])
	h.blocks = h.blocks[:ns]
	for _, b := range data {
		h.insert(b, free)
	}
	for _, b := range data {
		free.put(b)
	}
}

// runs returns the two sorted runs, older arrivals first: readers visit
// sealed before data so equal timestamps come out in arrival order.
func (h *head) runs() [2][][]sensor.Reading {
	if h == nil {
		return [2][][]sensor.Reading{}
	}
	return [2][][]sensor.Reading{h.blocks[:h.nsealed], h.blocks[h.nsealed:]}
}

// insert places readings at their sorted positions in the data run,
// after any equal timestamp: append-fast for the common in-order case.
// A block that fills chains the next one, from free when it has one.
func (h *head) insert(rs []sensor.Reading, free *freeBlocks) {
	for len(rs) > 0 {
		r := rs[0]
		last := len(h.blocks) - 1
		if last < h.nsealed {
			// A series whose last flush wrote more than a block is dense:
			// its new run starts in a full-size block. Any other starts
			// small and grows, so a sparse series holds little.
			var b []sensor.Reading
			if h.nsealed > 1 {
				b = free.get()
			} else {
				b = make([]sensor.Reading, 0, 8)
			}
			h.blocks = append(h.blocks, append(b, r))
			rs = rs[1:]
			continue
		}
		b := h.blocks[last]
		if n := len(b); b[n-1].Time <= r.Time {
			if n == cap(b) {
				h.place(last, n, r, free)
				rs = rs[1:]
				continue
			}
			// The in-order prefix of rs that fits goes in with one copy.
			k := 1
			for k < len(rs) && k < cap(b)-n && rs[k-1].Time <= rs[k].Time {
				k++
			}
			h.blocks[last], rs = append(b, rs[:k]...), rs[k:]
			continue
		}
		rs = rs[1:]
		data := h.blocks[h.nsealed:]
		bi := h.nsealed + sort.Search(len(data), func(i int) bool {
			b := data[i]
			return b[len(b)-1].Time > r.Time
		})
		b = h.blocks[bi]
		h.place(bi, sort.Search(len(b), func(i int) bool { return b[i].Time > r.Time }), r, free)
	}
}

// place inserts r at position pos of block bi. A full block at the end
// of the run chains a new block for an in-order reading and splits in
// two for a late one; a smaller block grows.
func (h *head) place(bi, pos int, r sensor.Reading, free *freeBlocks) {
	b := h.blocks[bi]
	if len(b) == cap(b) {
		switch {
		case cap(b) < blockLen:
			nb := make([]sensor.Reading, len(b), min(2*cap(b), blockLen))
			copy(nb, b)
			b = nb
		case pos == len(b):
			h.blocks = append(h.blocks, append(free.get(), r))
			return
		default:
			half := blockLen / 2
			nb := append(free.get(), b[half:]...)
			h.blocks = append(h.blocks, nil)
			copy(h.blocks[bi+2:], h.blocks[bi+1:])
			h.blocks[bi+1] = nb
			b = b[:half]
			if pos > half {
				h.blocks[bi] = b
				bi, pos, b = bi+1, pos-half, nb
			}
		}
	}
	b = append(b, sensor.Reading{})
	copy(b[pos+1:], b[pos:])
	b[pos] = r
	h.blocks[bi] = b
}

// firstBlock returns the index of the first block of run holding a
// reading at or after t, len(run) if none does. The blocks of a window
// [t0, t1] run from firstBlock(run, t0) to the first block that starts
// after t1; only the first and the last of them can hold readings
// outside it, which clip cuts away.
func firstBlock(run [][]sensor.Reading, t int64) int {
	return sort.Search(len(run), func(k int) bool {
		b := run[k]
		return b[len(b)-1].Time >= t
	})
}

// clip cuts a block to its readings within [t0, t1] (none when t1 <
// t0).
func clip(b []sensor.Reading, t0, t1 int64) []sensor.Reading {
	lo := sort.Search(len(b), func(i int) bool { return b[i].Time >= t0 })
	hi := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i].Time > t1 })
	return b[lo:hi]
}

// appendRange appends the readings within [t0, t1] to dst: sorted
// unless an out-of-order arrival landed behind the sealed run's tail,
// which Range's final order check repairs.
func (h *head) appendRange(t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	for _, run := range h.runs() {
		for _, b := range run[firstBlock(run, t0):] {
			if b[0].Time > t1 {
				break
			}
			dst = append(dst, clip(b, t0, t1)...)
		}
	}
	return dst
}

// latest returns the newest reading at or after floor; on equal
// timestamps the later arrival.
func (h *head) latest(floor int64) (best sensor.Reading, found bool) {
	for _, run := range h.runs() {
		if n := len(run); n > 0 {
			last := run[n-1][len(run[n-1])-1]
			if last.Time >= floor && (!found || last.Time >= best.Time) {
				best, found = last, true
			}
		}
	}
	return best, found
}

// countFrom returns how many readings are at or after floor.
func (h *head) countFrom(floor int64) int {
	n := 0
	for _, run := range h.runs() {
		for k, b := range run[firstBlock(run, floor):] {
			if k == 0 {
				b = b[sort.Search(len(b), func(i int) bool { return b[i].Time >= floor }):]
			}
			n += len(b)
		}
	}
	return n
}

// aggregate reduces the readings within [t0, t1], one in-order fold per
// run.
func (h *head) aggregate(t0, t1 int64) store.AggResult {
	var a store.AggResult
	for _, run := range h.runs() {
		var part store.AggResult
		for _, b := range run[firstBlock(run, t0):] {
			if b[0].Time > t1 {
				break
			}
			part.ObserveAll(clip(b, t0, t1))
		}
		a.Merge(part)
	}
	return a
}

// appendWindow appends the blocks of run cut to [t0, t1] to dst: the
// run's readings in the window, as store.AppendBuckets takes them.
func appendWindow(dst, run [][]sensor.Reading, t0, t1 int64) [][]sensor.Reading {
	for _, b := range run[firstBlock(run, t0):] {
		if b[0].Time > t1 {
			break
		}
		dst = append(dst, clip(b, t0, t1))
	}
	return dst
}

// prune drops readings strictly older than cutoff, returning how many;
// the blocks it empties go to free. Flush and Prune exclude each other,
// so there is no sealed run to trim.
func (h *head) prune(cutoff int64, free *freeBlocks) int {
	i, dropped := firstBlock(h.blocks, cutoff), 0
	for _, b := range h.blocks[:i] {
		dropped += len(b)
		free.put(b)
	}
	if i < len(h.blocks) {
		b := h.blocks[i]
		lo := sort.Search(len(b), func(k int) bool { return b[k].Time >= cutoff })
		h.blocks[i] = b[:copy(b, b[lo:])]
		dropped += lo
	}
	n := copy(h.blocks, h.blocks[i:])
	clear(h.blocks[n:])
	h.blocks = h.blocks[:n]
	return dropped
}
