package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

func TestEncodeDecodePublish(t *testing.T) {
	m := Message{
		Topic: "/r1/n1/power",
		Readings: []sensor.Reading{
			{Value: 42.5, Time: 1000},
			{Value: -1.25, Time: 2000},
		},
	}
	got, err := DecodePublish(EncodePublish(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != m.Topic || len(got.Readings) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range m.Readings {
		if got.Readings[i] != m.Readings[i] {
			t.Fatalf("reading %d = %+v", i, got.Readings[i])
		}
	}
}

func TestEncodeDecodePublishProperty(t *testing.T) {
	f := func(topic string, vals []float64, times []int64) bool {
		n := len(vals)
		if len(times) < n {
			n = len(times)
		}
		rs := make([]sensor.Reading, n)
		for i := 0; i < n; i++ {
			rs[i] = sensor.Reading{Value: vals[i], Time: times[i]}
		}
		m := Message{Topic: sensor.Topic(topic), Readings: rs}
		got, err := DecodePublish(EncodePublish(m))
		if err != nil || got.Topic != m.Topic || len(got.Readings) != n {
			return false
		}
		for i := range rs {
			// NaN != NaN; compare bit patterns via equality of encoded form.
			a, b := rs[i], got.Readings[i]
			if a.Time != b.Time {
				return false
			}
			if a.Value != b.Value && !(a.Value != a.Value && b.Value != b.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodePublishErrors(t *testing.T) {
	// A forged count chosen so cnt*16 wraps uint64 to the actual payload
	// length: the multiply-based length check would pass and the decode
	// loop would run off the end of the buffer.
	overflow := []byte{1, 'a'}
	overflow = binary.AppendUvarint(overflow, 1<<60+1)
	overflow = append(overflow, make([]byte, 16)...)
	bad := [][]byte{
		{},             // empty
		{0xff},         // truncated uvarint
		{5, 'a'},       // topic shorter than declared
		{1, 'a', 2, 0}, // reading records truncated
		overflow,       // count * 16 wraps uint64
	}
	for i, payload := range bad {
		if _, err := DecodePublish(payload); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, framePublish, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != framePublish || string(payload) != "hello" {
		t.Fatalf("frame = %d %q %v", typ, payload, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, maxFrameSize+1)
	if err := writeFrame(&buf, framePublish, big); err != ErrFrameTooLarge {
		t.Errorf("write err = %v", err)
	}
	// Forged oversized header.
	buf.Reset()
	buf.Write([]byte{framePublish, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf); err != ErrFrameTooLarge {
		t.Errorf("read err = %v", err)
	}
}

func TestBrokerLocalDelivery(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var got []Message
	b.SubscribeLocal(each(func(m Message) {
		// The broker owns m.Readings only for the duration of the call
		// (see BurstHandler); retaining the batch requires a copy.
		m.Readings = append([]sensor.Reading(nil), m.Readings...)
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}))

	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Publish("/r1/n1/power", []sensor.Reading{{Value: 7, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/r2/n1/power", []sensor.Reading{{Value: 8, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for delivery")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Topic != "/r1/n1/power" || got[0].Readings[0].Value != 7 ||
		got[1].Topic != "/r2/n1/power" || got[1].Readings[0].Value != 8 {
		t.Fatalf("local delivery = %+v", got)
	}
}

// TestPing: the broker answers a peer's PINGREQ with a PINGRESP. The
// client sends none, but other peers may.
func TestPing(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	for _, step := range []struct{ send, want byte }{{frameConnect, frameConnAck}, {framePingReq, framePingResp}} {
		if err := writeFrame(conn, step.send, nil); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readFrame(conn); err != nil || typ != step.want {
			t.Fatalf("frame %d answered with %d (%v), want %d", step.send, typ, err, step.want)
		}
	}
}

func TestPublishAfterClose(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/x", nil); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close err = %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var count sync.WaitGroup
	var mu sync.Mutex
	total := 0
	b.SubscribeLocal(each(func(m Message) {
		mu.Lock()
		total += len(m.Readings)
		mu.Unlock()
	}))

	const publishers = 4
	const msgs = 50
	for p := 0; p < publishers; p++ {
		count.Add(1)
		go func(p int) {
			defer count.Done()
			c, err := Dial(b.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < msgs; i++ {
				if err := c.Publish("/n/power", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	count.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := total
		mu.Unlock()
		if n == publishers*msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d readings", n, publishers*msgs)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBrokerCloseUnblocksClients(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Client close after broker shutdown must not hang.
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client Close hung after broker shutdown")
	}
}
