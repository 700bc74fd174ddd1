package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// TestBrokerSurvivesGarbage injects malformed bytes on a raw TCP
// connection; the broker must drop that client and keep serving others.
func TestBrokerSurvivesGarbage(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Raw connection writing junk.
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// A well-behaved client still works.
	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !ackedPublish(c) {
		t.Fatalf("broker unhealthy after garbage: no ack within 2s: %+v", c.Stats())
	}
}

// liveConn returns the client's current connection, nil between
// redials.
func (c *Client) liveConn() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// ackedPublish publishes one batch from a QoS 1 client and reports
// whether the broker acknowledged it within 2 s.
func ackedPublish(c *Client) bool {
	before := c.Stats().Acked
	if c.Publish("/barrier", []sensor.Reading{{Value: 1, Time: 1}}) != nil {
		return false
	}
	for deadline := time.Now().Add(2 * time.Second); c.Stats().Acked == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestBrokerDropsBadPublishKeepsConnection: a structurally-valid frame
// with a corrupt PUBLISH payload is dropped without killing the session.
func TestBrokerDropsBadPublishKeepsConnection(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan Message, 1)
	b.SubscribeLocal(each(func(m Message) {
		m.Readings = append([]sensor.Reading(nil), m.Readings...)
		got <- m
	}))

	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, frameConnect, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt publish payload: declares a topic longer than the frame.
	if err := writeFrame(raw, framePublish, []byte{200, 'x'}); err != nil {
		t.Fatal(err)
	}
	// A valid publish on the same connection must still be routed.
	valid := EncodePublish(Message{Topic: "/ok", Readings: []sensor.Reading{{Value: 1, Time: 1}}})
	if err := writeFrame(raw, framePublish, valid); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Topic != "/ok" {
			t.Fatalf("routed %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid publish after corrupt one was not routed")
	}
}

// TestKillConnections: the chaos fault injector's connection killer must
// sever exactly the requested number of live sessions (all with n < 0),
// the victims must observe the break — and redial, at either QoS — and
// the broker must keep accepting fresh connections afterwards.
func TestKillConnections(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	clients := make([]*Client, 3)
	for i := range clients {
		// The session is registered once the dial's CONNACK is in.
		c, err := DialOptions(b.Addr(), Options{SpoolBatches: 8, RetryMin: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// settled waits until the clients have redialled atLeast times in
	// total and the broker has deregistered the dead sessions, so exactly
	// the three live ones remain, and then until each client has a
	// publish acked.
	settled := func(atLeast uint64) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			var reconnects uint64
			for _, c := range clients {
				reconnects += c.Stats().Reconnects
			}
			b.mu.Lock()
			live := len(b.conns)
			b.mu.Unlock()
			if reconnects >= atLeast && live == len(clients) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("clients did not all come back: %d reconnects (want >= %d), %d live sessions", reconnects, atLeast, live)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for i, c := range clients {
			if !ackedPublish(c) {
				t.Fatalf("client %d: no ack within 2s after the kill: %+v", i, c.Stats())
			}
		}
	}
	if n := b.KillConnections(1); n != 1 {
		t.Fatalf("KillConnections(1) = %d", n)
	}
	settled(1) // the victim observed the break and redialled on its own
	if n := b.KillConnections(-1); n != 3 {
		t.Fatalf("KillConnections(-1) = %d, want all 3 live sessions", n)
	}
	settled(4)

	// The broker itself survives: fresh sessions connect and publish.
	got := make(chan Message, 1)
	b.SubscribeLocal(each(func(m Message) {
		select {
		case got <- m:
		default:
		}
	}))
	fresh, err := Dial(b.Addr())
	if err != nil {
		t.Fatalf("dial after kill: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Publish("/alive", []sensor.Reading{{Value: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Topic != "/alive" {
			t.Fatalf("routed %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish after kill not routed")
	}
	// The three redialled sessions plus the fresh one.
	if n := b.KillConnections(-1); n != 4 {
		t.Fatalf("KillConnections(-1) with three redialled sessions and one fresh = %d, want 4", n)
	}
}

// TestQoS0SurvivesConnectionKill: a QoS 0 client whose connection is
// lost keeps forwarding — it redials like any other client, so a batch
// published after the kill reaches the broker. Batches published while
// it is disconnected are dropped and counted, never an error.
func TestQoS0SurvivesConnectionKill(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var after atomic.Bool
	got := make(chan Message, 1)
	b.SubscribeLocal(each(func(m Message) {
		if m.Epoch != 0 || m.Seq != 0 {
			t.Errorf("QoS 0 publish carried a delivery identity: epoch %x seq %d", m.Epoch, m.Seq)
		}
		if after.Load() && m.Readings[0].Value == 2 {
			select {
			case got <- m:
			default:
			}
		}
	}))

	c, err := DialOptions(b.Addr(), Options{RetryMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The session is registered once the dial's CONNACK is in.
	if n := b.KillConnections(-1); n != 1 {
		t.Fatalf("KillConnections(-1) = %d, want 1", n)
	}
	after.Store(true)
	deadline := time.After(3 * time.Second)
	for published := 0; ; published++ {
		if err := c.Publish("/qos0/after", []sensor.Reading{{Value: 2, Time: int64(published)}}); err != nil {
			t.Fatalf("publish after kill: %v", err)
		}
		select {
		case <-got:
			st := c.Stats()
			if st.Reconnects == 0 {
				t.Fatalf("batch delivered after the kill without a reconnect: %+v", st)
			}
			if st.Acked != 0 || st.Redeliveries != 0 {
				t.Fatalf("QoS 0 client acked or redelivered: %+v", st)
			}
			if int(st.Published+st.Dropped) != published+1 {
				t.Fatalf("published %d + dropped %d != %d Publish calls", st.Published, st.Dropped, published+1)
			}
			return
		case <-deadline:
			t.Fatalf("no batch published after the kill ever reached the broker: %+v", c.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestDeafPublisherTornDownByWriteDeadline: a peer that stops reading
// cannot wedge the broker. A v2 publisher that never reads its acks —
// every publish a fresh epoch, so each earns a PubAck of its own — fills
// its socket buffers, then its connection's reply queue; the write
// deadline tears it down, and a second publisher's acks keep flowing the
// whole time.
func TestDeafPublisherTornDownByWriteDeadline(t *testing.T) {
	const (
		deadline = time.Second
		slack    = 2 * time.Second
	)
	reg := telemetry.NewRegistry()
	b, err := NewBroker("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.mu.Lock()
	b.writeDeadline, b.sendBuffer = deadline, 4<<10
	b.mu.Unlock()
	failures := func() float64 {
		v, _ := reg.Value("dcdb_broker_subscriber_write_failures_total")
		return v
	}

	deaf := rawPeer(t, b)
	var lastWrite atomic.Int64 // unix ns of the deaf publisher's last write that went through
	deafDone := make(chan struct{})
	go func() {
		defer close(deafDone)
		for epoch := uint64(1); ; epoch++ {
			if _, err := deaf.Write(publishFrame(epoch, 1)); err != nil {
				return
			}
			lastWrite.Store(time.Now().UnixNano())
		}
	}()

	healthy := rawPeer(t, b)
	var (
		maxGap time.Duration
		down   time.Time
	)
	start := time.Now()
	last := start
	for seq := uint64(1); down.IsZero(); seq++ {
		if _, err := healthy.Write(publishFrame(7, seq)); err != nil {
			t.Fatal(err)
		}
		expectAck(t, healthy, 7, seq)
		now := time.Now()
		maxGap, last = max(maxGap, now.Sub(last)), now
		if failures() > 0 {
			down = now
		} else if now.Sub(start) > 30*time.Second {
			t.Fatal("the deaf publisher was never torn down")
		}
		time.Sleep(time.Millisecond)
	}
	if took := down.Sub(time.Unix(0, lastWrite.Load())); took > deadline+slack {
		t.Fatalf("torn down %v after its last write went through, want within %v", took, deadline+slack)
	}
	if maxGap >= deadline {
		t.Fatalf("the healthy publisher waited %v for an ack, want under the %v write deadline", maxGap, deadline)
	}
	select {
	case <-deafDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the deaf publisher's writes never failed")
	}
	if v := failures(); v != 1 {
		t.Fatalf("write failures = %v, want 1", v)
	}
	t.Logf("torn down after %v; healthy publisher's longest ack gap %v", down.Sub(start), maxGap)
}
