package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Topic-handle tests, through a real broker connection: which handle a
// delivered message carries, whose state hangs off it, and what happens
// to a publisher the intern table has no room for.

// topicFrame is one framed v2 PUBLISH of one reading on topic.
func topicFrame(topic sensor.Topic, epoch, seq uint64) []byte {
	var buf bytes.Buffer
	_ = writeFrame(&buf, framePublishV2, EncodePublishV2(Message{
		Topic: topic, Readings: []sensor.Reading{{Value: float64(seq), Time: int64(seq)}}, Epoch: epoch, Seq: seq,
	}))
	return buf.Bytes()
}

// TestHandleIsPerConnectionAndTopic: every message of one topic on one
// connection carries the same handle, another topic or another
// connection a different one.
func TestHandleIsPerConnectionAndTopic(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var (
		mu   sync.Mutex
		refs = map[uint64][]*TopicRef{} // by epoch, one per connection here
	)
	b.SubscribeLocal(func(ms []Message) {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range ms {
			if m.Ref == nil || m.Ref.Topic != m.Topic {
				t.Errorf("message on %s carries handle %+v", m.Topic, m.Ref)
			}
			refs[m.Epoch] = append(refs[m.Epoch], m.Ref)
		}
	})
	first, second := rawPeer(t, b), rawPeer(t, b)
	for seq, topic := range []sensor.Topic{"/h/x", "/h/y", "/h/x", "/h/x"} {
		if _, err := first.Write(topicFrame(topic, 1, uint64(seq+1))); err != nil {
			t.Fatal(err)
		}
		expectAck(t, first, 1, uint64(seq+1))
	}
	if _, err := second.Write(topicFrame("/h/x", 2, 1)); err != nil {
		t.Fatal(err)
	}
	expectAck(t, second, 2, 1)
	mu.Lock()
	defer mu.Unlock()
	a, o := refs[1], refs[2]
	if len(a) != 4 || len(o) != 1 {
		t.Fatalf("handlers saw %d and %d messages, want 4 and 1", len(a), len(o))
	}
	if a[0] != a[2] || a[0] != a[3] {
		t.Error("one topic on one connection: handles differ")
	}
	if a[0] == a[1] {
		t.Error("two topics on one connection share a handle")
	}
	if a[0] == o[0] {
		t.Error("two connections share a handle")
	}
}

// TestHandleStateIsPerHandler: the chaos ledger registers a second
// handler beside the agent's. Every handler sees every message, and what
// one attaches to a handle no other sees or replaces.
func TestHandleStateIsPerHandler(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	type counter struct{ n int }
	var mu sync.Mutex // the handlers run on the connection's goroutine
	var owners [3]struct {
		key  int // its address identifies the handler
		seen int
		last *counter
	}
	for i := range owners {
		o := &owners[i]
		b.SubscribeLocal(func(ms []Message) {
			mu.Lock()
			defer mu.Unlock()
			for _, m := range ms {
				o.seen++
				c, _ := m.Ref.State(&o.key).(*counter)
				if c == nil {
					c = new(counter)
					m.Ref.Attach(&o.key, c)
				}
				c.n++
				o.last = c
			}
		})
	}
	conn := rawPeer(t, b)
	const n = 5
	for seq := uint64(1); seq <= n; seq++ {
		if _, err := conn.Write(topicFrame("/h/x", 3, seq)); err != nil {
			t.Fatal(err)
		}
		expectAck(t, conn, 3, seq) // sent after every handler returned
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range owners {
		o := &owners[i]
		if o.seen != n || o.last == nil || o.last.n != n {
			t.Errorf("handler %d saw %d messages, its state counted %+v; want %d and %d", i, o.seen, o.last, n, n)
		}
		for j := range owners {
			if i != j && o.last == owners[j].last {
				t.Errorf("handlers %d and %d share one cell", i, j)
			}
		}
	}
	// A second Attach under one owner replaces, under another adds.
	var r TopicRef
	r.Attach(&owners[0].key, 1)
	r.Attach(&owners[1].key, 2)
	r.Attach(&owners[0].key, 3)
	if r.State(&owners[0].key) != 3 || r.State(&owners[1].key) != 2 || r.State(&owners[2].key) != nil || len(r.attached) != 2 {
		t.Errorf("attached = %+v", r.attached)
	}
}

// TestHandleInternCapOverflow: a publisher with more topics than the
// intern table pins, and one with a topic too long to pin, has every
// publish delivered and acknowledged all the same — without a handle,
// and counted.
func TestHandleInternCapOverflow(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := NewBroker("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var (
		mu          sync.Mutex
		seen, noRef int
	)
	b.SubscribeLocal(func(ms []Message) {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range ms {
			seen++
			if m.Ref == nil {
				noRef++
			}
		}
	})
	const over = 50
	topics := []sensor.Topic{sensor.Topic("/long/" + strings.Repeat("x", maxInternTopicLen))}
	for i := 0; i < maxInternTopics+over; i++ {
		topics = append(topics, sensor.Topic(fmt.Sprintf("/cap/t%04d", i)))
	}
	conn := rawPeer(t, b)
	seq := uint64(0)
	for pass := 0; pass < 2; pass++ {
		var wire []byte
		for _, topic := range topics {
			seq++
			wire = append(wire, topicFrame(topic, 4, seq)...)
		}
		go conn.Write(wire) // the acks come back while this is still writing
		for acked := uint64(0); acked < seq; {
			typ, payload, err := readFrame(conn)
			if err != nil || typ != framePubAck {
				t.Fatalf("pass %d: frame %d, %v", pass, typ, err)
			}
			if _, acked, err = decodePubAck(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := 2 * len(topics); seen != want {
		t.Fatalf("delivered %d of %d publishes", seen, want)
	}
	if want := 2 * (over + 1); noRef != want || b.metrics.uninterned.Value() != uint64(want) {
		t.Fatalf("%d publishes without a handle, %d counted; want %d", noRef, b.metrics.uninterned.Value(), want)
	}
	var exposed bytes.Buffer
	if err := reg.WritePrometheus(&exposed); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("dcdb_transport_uninterned_publishes_total %d\n", 2*(over+1)); !strings.Contains(exposed.String(), line) {
		t.Errorf("/metrics lacks %q", line)
	}
}

// refEncodePublish is the v1 encoder as it stood before appendPublish:
// the reference the wire bytes are held to.
func refEncodePublish(m Message) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(m.Topic)))]...)
	buf = append(buf, []byte(m.Topic)...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(m.Readings)))]...)
	var rec [16]byte
	for _, r := range m.Readings {
		binary.BigEndian.PutUint64(rec[0:8], math.Float64bits(r.Value))
		binary.BigEndian.PutUint64(rec[8:16], uint64(r.Time))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// TestEncodePublishBytesAndAllocs: both encoders write what they always
// wrote — v2 is the (epoch, seq) uvarints and then the v1 payload — into
// one exactly-sized allocation.
func TestEncodePublishBytesAndAllocs(t *testing.T) {
	msgs := []Message{
		{},
		fuzzMessage,
		{Topic: "/a", Epoch: math.MaxUint64, Seq: 1 << 35, Readings: make([]sensor.Reading, 200)},
		{Topic: sensor.Topic(strings.Repeat("t", 300)), Epoch: 127, Seq: 128, Readings: []sensor.Reading{{Value: math.Inf(-1), Time: -1}}},
	}
	for i, m := range msgs {
		v1, v2 := EncodePublish(m), EncodePublishV2(m)
		want := refEncodePublish(m)
		if !bytes.Equal(v1, want) {
			t.Errorf("message %d: v1 bytes changed", i)
		}
		if !bytes.Equal(v2, append(encodePubAck(nil, m.Epoch, m.Seq), want...)) {
			t.Errorf("message %d: v2 bytes changed", i)
		}
		if len(v1) != cap(v1) || len(v2) != cap(v2) {
			t.Errorf("message %d: %d/%d and %d/%d bytes used of those allocated", i, len(v1), cap(v1), len(v2), cap(v2))
		}
	}
	var sink []byte
	if n := testing.AllocsPerRun(100, func() { sink = EncodePublishV2(fuzzMessage) }); n != 1 {
		t.Errorf("EncodePublishV2 allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = EncodePublish(fuzzMessage) }); n != 1 {
		t.Errorf("EncodePublish allocates %.0f times, want 1", n)
	}
	_ = sink
}
