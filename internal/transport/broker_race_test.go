package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TestSubscriberFramesNeverInterleave regression-tests the broker
// frame-write race: route used to write framePublish to a subscriber's
// connection without the mutex serveConn held for acks, so a publish
// could interleave mid-frame with a SubAck or PingResp and desync the
// subscriber's stream. Here one subscriber pings continuously (acks on
// its conn) while a publisher floods matching messages (publishes on
// the same conn): every ping must succeed and every message must arrive
// intact.
func TestSubscriberFramesNeverInterleave(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var received atomic.Int64
	if err := sub.Subscribe("/race/#", func(m Message) {
		if len(m.Readings) != 3 || m.Readings[0].Value != 1 {
			t.Errorf("corrupted delivery: %+v", m)
		}
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	const msgs = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // continuous acks on the subscriber conn
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := sub.Ping(); err != nil {
				t.Errorf("ping failed mid-flood (frame stream desynced?): %v", err)
				return
			}
		}
	}()
	// A second subscription mid-flood exercises the SubAck path too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := sub.Subscribe(fmt.Sprintf("/other%d/#", i), func(Message) {}); err != nil {
				t.Errorf("subscribe failed mid-flood: %v", err)
				return
			}
		}
	}()

	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	batch := []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}, {Value: 3, Time: 3}}
	for i := 0; i < msgs; i++ {
		if err := pub.Publish("/race/n1/power", batch); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < msgs {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", received.Load(), msgs)
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
}

// each adapts a per-message test handler to the broker's burst delivery.
func each(fn func(Message)) BurstHandler {
	return func(ms []Message) {
		for _, m := range ms {
			fn(m)
		}
	}
}

// TestRouteSteadyStateAllocFree pins the satellite guarantee that
// steady-state routing (decode + local delivery + subscriber matching)
// performs no per-message allocation once a connection's topics and
// batch shape have been seen — through a filtered handler, which is
// handed a subset built in the burst's scratch, and an unfiltered one.
func TestRouteSteadyStateAllocFree(t *testing.T) {
	b := &Broker{conns: make(map[*brokerConn]struct{})}
	b.metrics = newBrokerMetrics(nil, nil)
	b.SubscribeLocal("/a/#", func([]Message) {})
	b.SubscribeLocal("#", func([]Message) {})
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
