package collect

import (
	"sync"

	"github.com/dcdb/wintermute/internal/sensor"
)

// maxDedupEpochs bounds the number of client epochs tracked at once.
// One epoch is one pusher incarnation, so the bound is really "restarts
// remembered between agent restarts" — 4096 outlives any realistic
// churn while keeping the table small. On overflow the
// least-recently-active epoch is evicted; a late redelivery from an
// evicted epoch over a new connection would then be re-admitted
// (duplicate, not loss), which is the right failure direction for an
// at-least-once pipeline. A connection that was up at the eviction still
// holds the marks it resolved (markRef) and keeps deduplicating by them.
const maxDedupEpochs = 4096

// dedup turns the transport's at-least-once delivery into exactly-once
// ingest: a per-(client-epoch, topic) sequence high-water mark. A
// reliable client assigns sequences monotonically at publish time and
// redelivers in the original order after a reconnect, so on any given
// topic the sequences arrive non-decreasing with duplicates exactly on
// the redelivered prefix — a batch is new iff its sequence is above the
// topic's mark. Unversioned publishers (epoch 0) carry no identity and
// are always admitted.
type dedup struct {
	mu     sync.Mutex
	epochs map[uint64]*epochMarks
	tick   uint64 // admission clock for least-recently-active eviction
}

// epochMarks is one client incarnation's per-topic high-water marks. A
// mark is a cell of its own so that a connection can hold on to it.
type epochMarks struct {
	topics map[sensor.Topic]*uint64
	seen   uint64 // tick of the last admission touching this epoch
}

// markRef is a resolved (epoch, topic) mark: what a connection's topic
// handle keeps so that the next batch of the topic finds its mark without
// a lookup. It is valid for one epoch and re-resolved when a batch of
// another arrives; the cells it points to are only touched under
// dedup.mu.
type markRef struct {
	epoch uint64
	marks *epochMarks
	mark  *uint64
}

func newDedup() *dedup {
	return &dedup{epochs: make(map[uint64]*epochMarks)}
}

// admit reports whether the batch (epoch, seq) on topic has not been
// ingested before, advancing the topic's mark when it has not.
func (d *dedup) admit(epoch uint64, topic sensor.Topic, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.admitLocked(epoch, topic, seq, nil)
}

// admitLocked is admit for a caller that holds d.mu — the ingest handler
// takes it once per burst. ref, when non-nil, is the topic handle's
// markRef: it is used if it is for this epoch and filled in if not.
func (d *dedup) admitLocked(epoch uint64, topic sensor.Topic, seq uint64, ref *markRef) bool {
	if epoch == 0 {
		return true
	}
	var local markRef
	if ref == nil {
		ref = &local
	}
	if ref.epoch != epoch {
		e := d.epochs[epoch]
		if e == nil {
			if len(d.epochs) >= maxDedupEpochs {
				d.evictOldestLocked()
			}
			e = &epochMarks{topics: make(map[sensor.Topic]*uint64)}
			d.epochs[epoch] = e
		}
		mark := e.topics[topic]
		if mark == nil {
			mark = new(uint64)
			e.topics[topic] = mark
		}
		*ref = markRef{epoch: epoch, marks: e, mark: mark}
	}
	d.tick++
	ref.marks.seen = d.tick
	if seq <= *ref.mark {
		return false
	}
	*ref.mark = seq
	return true
}

// evictOldestLocked drops the least-recently-active epoch. Callers hold
// d.mu.
func (d *dedup) evictOldestLocked() {
	var (
		oldest uint64
		minT   uint64
		first  = true
	)
	for epoch, e := range d.epochs {
		if first || e.seen < minT {
			oldest, minT, first = epoch, e.seen, false
		}
	}
	delete(d.epochs, oldest)
}

// size reports the number of tracked epochs (for the telemetry gauge).
func (d *dedup) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.epochs)
}
