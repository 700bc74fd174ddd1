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
// steady-state routing (decode + local delivery) performs no
// per-message allocation once a connection's topics and batch shape have
// been seen — through two handlers, each handed the whole burst.
func TestRouteSteadyStateAllocFree(t *testing.T) {
	b := &Broker{conns: make(map[*brokerConn]struct{})}
	b.metrics = newBrokerMetrics(nil, nil)
	b.SubscribeLocal(func([]Message) {})
	b.SubscribeLocal(func([]Message) {})
	payloads := [][]byte{
		EncodePublish(Message{Topic: "/a/n1/power", Readings: []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}}}),
		EncodePublish(Message{Topic: "/b/n1/power", Readings: []sensor.Reading{{Value: 3, Time: 3}}}),
	}
	var bu burst
	topics := make(map[string]*TopicRef)
	warm := func() {
		for i, p := range payloads {
			if err := bu.add(p, true, 7, uint64(i), topics); err != nil {
				t.Fatal(err)
			}
		}
		b.route(&bu)
		bu.reset()
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs > 0 {
		t.Fatalf("steady-state decode+route allocates %.1f times per burst", allocs)
	}
}
