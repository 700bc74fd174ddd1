package transport

import (
	"container/list"
	"sync"
)

// maxDedupEpochs bounds the number of client epochs tracked at once.
// One epoch is one client incarnation, so the bound is really "restarts
// remembered between broker restarts" — 4096 outlives any realistic
// churn while keeping the table small. On overflow the
// least-recently-active epoch is evicted; a late redelivery from an
// evicted epoch over a new connection would then be admitted again
// (duplicate, not loss), which is the right failure direction for an
// at-least-once pipeline. A connection that was up at the eviction still
// holds the epoch's watermark and keeps deduplicating by it.
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
	// active orders the tracked marks by their last burst, least recent
	// first, so that eviction is one step however many epochs churn.
	active list.List
}

// watermark is one client epoch's mark, a cell of its own so that a
// connection can hold on to it. It is only touched under watermarks.mu.
type watermark struct {
	epoch uint64
	seq   uint64        // the highest sequence admitted
	elem  *list.Element // its place in watermarks.active
}

// lookupLocked returns the epoch's mark, creating it — and evicting the
// least recently active epoch when the table is full — on first sight.
func (w *watermarks) lookupLocked(epoch uint64) *watermark {
	if m := w.epochs[epoch]; m != nil {
		return m
	}
	if w.epochs == nil {
		w.epochs = make(map[uint64]*watermark)
	}
	if len(w.epochs) >= maxDedupEpochs {
		oldest := w.active.Remove(w.active.Front()).(*watermark)
		delete(w.epochs, oldest.epoch)
	}
	m := &watermark{epoch: epoch}
	m.elem = w.active.PushBack(m)
	w.epochs[epoch] = m
	return m
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
// the connection used last: it is looked up again only when the burst is
// of another epoch, so an epoch evicted while its connection is up still
// deduplicates there. dedup returns the mark for the connection to hold.
func (b *Broker) dedup(bu *burst, held *watermark) *watermark {
	if !bu.acked || bu.epoch == 0 {
		return held
	}
	w := &b.marks
	w.mu.Lock()
	if held == nil || held.epoch != bu.epoch {
		held = w.lookupLocked(bu.epoch)
	}
	w.active.MoveToBack(held.elem) // a no-op for a mark evicted since
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
