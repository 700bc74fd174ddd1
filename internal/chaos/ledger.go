package chaos

import (
	"sync"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/transport"
)

// entry is the ledger's record of one reading: the value that was
// sent and the delivery/storage bits filled in as the run progresses.
type entry struct {
	value     float64
	delivered bool
	stored    bool
	mismatch  bool
	copies    int // stored occurrences; >1 is an at-most-once violation
}

// Ledger is the harness's exact accounting of every reading: pushers
// record what they sent, a broker-side local subscriber records what
// the pipeline accepted (delivery is synchronous with the agent's own
// ingest handler, so the two observations cannot diverge), and
// Reconcile compares both against what the store returns afterwards.
//
// The scenario guarantees (topic, timestamp) uniqueness across all
// pushers, which is what makes the per-reading classification exact.
type Ledger struct {
	mu sync.Mutex
	// sent maps topic → timestamp → entry for every reading whose
	// Publish returned nil.
	sent map[sensor.Topic]map[int64]*entry
	// phantomDelivered counts delivered readings no pusher sent.
	phantomDelivered uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{sent: make(map[sensor.Topic]map[int64]*entry)}
}

// RecordSent logs one published batch. Call it only after Publish
// returned nil: a failed publish never entered the pipeline and must
// not be accounted.
func (l *Ledger) RecordSent(topic sensor.Topic, rs []sensor.Reading) {
	l.mu.Lock()
	m := l.sent[topic]
	if m == nil {
		m = make(map[int64]*entry, 1024)
		l.sent[topic] = m
	}
	for _, r := range rs {
		m[r.Time] = &entry{value: r.Value}
	}
	l.mu.Unlock()
}

// RecordDelivered is the broker-side observation hook: register it
// with Broker.SubscribeLocal(l.RecordDelivered) AFTER the collect
// agent's own subscription, so a burst's messages are marked delivered
// if and only if the agent's ingest handler ran for that burst in the
// same synchronous route pass. Both are handed the burst after the
// broker dropped redelivered copies (an at-least-once pusher resends
// whole batches after a reconnect), whose first delivery set the bit.
func (l *Ledger) RecordDelivered(ms []transport.Message) {
	l.mu.Lock()
	for _, m := range ms {
		byTS := l.sent[m.Topic]
		for _, r := range m.Readings {
			e := byTS[r.Time]
			if e == nil {
				l.phantomDelivered++
				continue
			}
			e.delivered = true
		}
	}
	l.mu.Unlock()
}

// SentTopics returns every topic with at least one sent reading.
func (l *Ledger) SentTopics() []sensor.Topic {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]sensor.Topic, 0, len(l.sent))
	for t := range l.sent {
		out = append(out, t)
	}
	return out
}

// Accounting is the reconciled fate of every reading the scenario sent.
// A healthy pipeline has AckedLost, Duplicates, Phantom and
// ValueMismatch all zero. UnackedDropped counts readings handed to a
// client but never routed: with the at-least-once spool active (the
// default) the spool must redeliver them, so a passing verdict requires
// zero; only a QoS 0 run (Scenario.SpoolBatches < 0) tolerates
// them as connection-kill collateral.
type Accounting struct {
	// Sent counts readings whose Publish returned nil.
	Sent uint64 `json:"sent"`
	// Delivered counts sent readings the broker routed to the agent.
	Delivered uint64 `json:"delivered"`
	// Stored counts sent readings present in the store afterwards.
	Stored uint64 `json:"stored"`
	// AckedLost counts readings the pipeline accepted (delivered) but
	// the store cannot produce — each one is a bug.
	AckedLost uint64 `json:"acked_lost"`
	// UnackedDropped counts readings handed to a client but never
	// routed — the frames a killed connection ate. Forbidden when the
	// at-least-once spool is on; allowed only in QoS 0 runs.
	UnackedDropped uint64 `json:"unacked_dropped"`
	// Duplicates counts (topic, timestamp) keys the store returned more
	// than once — an at-most-once violation.
	Duplicates uint64 `json:"duplicates"`
	// Phantom counts stored or delivered readings no pusher sent.
	Phantom uint64 `json:"phantom"`
	// ValueMismatch counts stored readings whose value differs from the
	// one sent (storage is lossless; any drift is corruption).
	ValueMismatch uint64 `json:"value_mismatch"`
}

// Clean reports whether the accounting shows zero pipeline bugs.
func (a Accounting) Clean() bool {
	return a.AckedLost == 0 && a.Duplicates == 0 && a.Phantom == 0 && a.ValueMismatch == 0
}

// Reconcile classifies every sent reading against the store. rangeAll
// must return every stored reading of the topic (the scenario passes a
// full-time-range Store.Range). Call it after Broker.Close returned:
// a reading still inside a serve loop would be misclassified.
func (l *Ledger) Reconcile(rangeAll func(sensor.Topic) []sensor.Reading) Accounting {
	l.mu.Lock()
	defer l.mu.Unlock()
	var acct Accounting
	acct.Phantom = l.phantomDelivered
	for topic, byTS := range l.sent {
		for _, r := range rangeAll(topic) {
			e := byTS[r.Time]
			if e == nil {
				acct.Phantom++
				continue
			}
			e.copies++
			if e.copies > 1 {
				acct.Duplicates++
				continue
			}
			e.stored = true
			if r.Value != e.value {
				e.mismatch = true
			}
		}
		for _, e := range byTS {
			acct.Sent++
			if e.delivered {
				acct.Delivered++
			}
			switch {
			case e.stored && e.mismatch:
				acct.Stored++
				acct.ValueMismatch++
			case e.stored:
				acct.Stored++
			case e.delivered:
				acct.AckedLost++
			default:
				acct.UnackedDropped++
			}
		}
	}
	return acct
}
