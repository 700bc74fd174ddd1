package transport

import (
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

// each adapts a per-message test handler to the broker's burst delivery.
func each(fn func(Message)) BurstHandler {
	return func(ms []Message) {
		for _, m := range ms {
			fn(m)
		}
	}
}

// TestRouteSteadyStateAllocFree pins the satellite guarantee that
// steady-state routing (decode + dedup + local delivery) performs no
// per-message allocation once a connection's topics, epoch and batch
// shape have been seen — through two handlers, each handed the whole
// burst.
func TestRouteSteadyStateAllocFree(t *testing.T) {
	b := &Broker{conns: make(map[*brokerConn]struct{})}
	b.metrics = newBrokerMetrics(nil, nil)
	delivered := 0
	b.SubscribeLocal(func(ms []Message) { delivered += len(ms) })
	b.SubscribeLocal(func([]Message) {})
	payloads := [][]byte{
		EncodePublish(Message{Topic: "/a/n1/power", Readings: []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}}}),
		EncodePublish(Message{Topic: "/b/n1/power", Readings: []sensor.Reading{{Value: 3, Time: 3}}}),
	}
	var (
		bu   burst
		mark *watermark
		seq  uint64
	)
	topics := make(map[string]*TopicRef)
	warm := func() {
		for _, p := range payloads {
			seq++
			if err := bu.add(p, true, 7, seq, topics); err != nil {
				t.Fatal(err)
			}
		}
		mark = b.dedup(&bu, mark)
		b.route(&bu)
		bu.reset()
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs > 0 {
		t.Fatalf("steady-state decode+dedup+route allocates %.1f times per burst", allocs)
	}
	if want := int(seq); delivered != want {
		t.Fatalf("handler saw %d of %d fresh messages", delivered, want)
	}
}
