package transport

import (
	"container/list"
	"sync"
)

// maxDedupEpochs bounds the number of closed epochs remembered: marks
// no connection holds. A mark a live connection holds is never evicted,
// however many there are — DCDB runs one pusher per node, so an agent
// may well serve more live epochs than this — and the table holds the
// live marks plus at most maxDedupEpochs closed ones. A closed mark
// serves a client that redials after its connection died; past the bound
// the least recently released one is evicted, and a late redelivery from
// that epoch over a new connection would then be admitted again
// (duplicate, not loss), which is the right failure direction for an
// at-least-once pipeline.
const maxDedupEpochs = 4096

// watermarks turn the client's at-least-once delivery into exactly-once
// delivery to the local handlers: one sequence high-water mark per
// client epoch. A reliable client numbers its batches in queue order,
// one sequence per batch whatever its topic, and redelivers in that
// order after a reconnect, so an epoch's sequences arrive increasing with
// duplicates exactly on the redelivered prefix — a batch is new iff its
// sequence is above the epoch's mark. The only two connections of one
// epoch that overlap, a dying one's buffered tail and the redial's
// redelivery, both arrive in order and are filtered under one mutex, so
// each batch is admitted once. Unversioned publishes (epoch 0) carry no
// identity and always pass.
type watermarks struct {
	mu     sync.Mutex
	epochs map[uint64]*watermark
	// closed orders the marks no connection holds by their release,
	// least recent first, so that eviction is one step however many
	// epochs churn.
	closed list.List
}

// watermark is one client epoch's mark, a cell of its own so that a
// connection can hold on to it. It is only touched under watermarks.mu.
type watermark struct {
	epoch   uint64
	seq     uint64        // the highest sequence admitted
	holders int           // connections holding the mark
	elem    *list.Element // its place in watermarks.closed while holders == 0
}

// acquireLocked returns the epoch's mark with one more holder, creating
// it on first sight; a closed mark leaves the eviction order.
func (w *watermarks) acquireLocked(epoch uint64) *watermark {
	m := w.epochs[epoch]
	switch {
	case m == nil:
		if w.epochs == nil {
			w.epochs = make(map[uint64]*watermark)
		}
		m = &watermark{epoch: epoch}
		w.epochs[epoch] = m
	case m.holders == 0:
		w.closed.Remove(m.elem)
		m.elem = nil
	}
	m.holders++
	return m
}

// releaseLocked drops one holder of m. A mark left without one joins the
// closed marks, and the least recently released of them is evicted when
// that makes more than maxDedupEpochs.
func (w *watermarks) releaseLocked(m *watermark) {
	if m.holders--; m.holders > 0 {
		return
	}
	m.elem = w.closed.PushBack(m)
	if w.closed.Len() > maxDedupEpochs {
		oldest := w.closed.Remove(w.closed.Front()).(*watermark)
		delete(w.epochs, oldest.epoch)
	}
}

// release drops a dying connection's hold on its mark (nil: it held none).
func (w *watermarks) release(m *watermark) {
	if m == nil {
		return
	}
	w.mu.Lock()
	w.releaseLocked(m)
	w.mu.Unlock()
}

// size reports the number of tracked epochs (for the telemetry gauge).
func (w *watermarks) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.epochs)
}

// dedup drops from the burst, in place, every versioned message at or
// below its epoch's mark, counting what it drops, and moves the mark up
// to the newest sequence it keeps — one lock per burst. held is the mark
// the connection holds: a burst of another epoch releases it and acquires
// that epoch's. dedup returns the mark the connection holds after it.
func (b *Broker) dedup(bu *burst, held *watermark) *watermark {
	if !bu.acked || bu.epoch == 0 {
		return held
	}
	w := &b.marks
	w.mu.Lock()
	if held == nil || held.epoch != bu.epoch {
		if held != nil {
			w.releaseLocked(held)
		}
		held = w.acquireLocked(bu.epoch)
	}
	kept, dupReadings := bu.msgs[:0], 0
	for _, m := range bu.msgs {
		if m.Epoch != 0 {
			if m.Seq <= held.seq {
				dupReadings += len(m.Readings)
				continue
			}
			held.seq = m.Seq
		}
		kept = append(kept, m)
	}
	w.mu.Unlock()
	if dups := len(bu.msgs) - len(kept); dups > 0 {
		b.metrics.dupBatches.Add(uint64(dups))
		b.metrics.dupReadings.Add(uint64(dupReadings))
	}
	bu.msgs = kept
	return held
}
