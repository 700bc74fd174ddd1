package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Scripted-peer tests for the broker's unit of delivery: a raw TCP peer
// decides exactly which bytes the serve loop finds in its read buffer,
// and a recording handler stands in for the store. They pin where a
// burst ends, that its one PubAck follows the handler's return, and
// that nothing decoded is left behind when the connection goes.

// burstLog records every burst a handler was handed, as (epoch, seq)
// pairs, and can hold the handler inside a call.
type burstLog struct {
	mu     sync.Mutex
	bursts [][]Message // Readings dropped: only identity and topic are kept
	gate   chan struct{}
}

func (l *burstLog) handle(ms []Message) {
	if l.gate != nil {
		<-l.gate
	}
	kept := make([]Message, len(ms))
	for i, m := range ms {
		kept[i] = Message{Topic: m.Topic, Epoch: m.Epoch, Seq: m.Seq}
	}
	l.mu.Lock()
	l.bursts = append(l.bursts, kept)
	l.mu.Unlock()
}

func (l *burstLog) sizes() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, len(l.bursts))
	for i, b := range l.bursts {
		out[i] = len(b)
	}
	return out
}

func (l *burstLog) waitMessages(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, s := range l.sizes() {
			total += s
		}
		if total >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %d of %d messages (bursts %v)", total, n, l.sizes())
		}
		time.Sleep(time.Millisecond)
	}
}

// rawPeer connects to the broker and completes the CONNECT handshake.
func rawPeer(t *testing.T, b *Broker) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, frameConnect, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != frameConnAck {
		t.Fatalf("handshake: frame %d, %v", typ, err)
	}
	return conn
}

// publishFrame is one framed PUBLISH: versioned with (epoch, seq) when
// epoch is non-zero, QoS 0 otherwise.
func publishFrame(epoch, seq uint64) []byte {
	m := Message{Topic: "/burst/t", Readings: []sensor.Reading{{Value: float64(seq), Time: int64(seq)}}, Epoch: epoch, Seq: seq}
	var buf bytes.Buffer
	if epoch != 0 {
		_ = writeFrame(&buf, framePublishV2, EncodePublishV2(m))
	} else {
		_ = writeFrame(&buf, framePublish, EncodePublish(m))
	}
	return buf.Bytes()
}

// expectAck reads the next frame off conn and requires PubAck(epoch, seq).
func expectAck(t *testing.T, conn net.Conn, epoch, seq uint64) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != framePubAck {
		t.Fatalf("want PubAck(%d, %d): frame %d, %v", epoch, seq, typ, err)
	}
	if e, s, err := decodePubAck(payload); err != nil || e != epoch || s != seq {
		t.Fatalf("PubAck(%d, %d), %v; want (%d, %d)", e, s, err, epoch, seq)
	}
}

// expectSilence requires that no frame arrives within d.
func expectSilence(t *testing.T, conn net.Conn, d time.Duration, why string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	if typ, _, err := readFrame(conn); err == nil {
		t.Fatalf("frame %d arrived %s", typ, why)
	}
}

// TestBurstEndsAtLastWholeFrame: three whole frames and half a fourth
// arrive in one segment. The three are one burst, stored and acked
// while the loop still lacks the other half — a loop that reads on
// whenever bytes are buffered would sit in that read holding three
// unstored batches. The fourth is its own burst once it completes.
func TestBurstEndsAtLastWholeFrame(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var log burstLog
	b.SubscribeLocal(log.handle)
	conn := rawPeer(t, b)

	var wire []byte
	for seq := uint64(1); seq <= 3; seq++ {
		wire = append(wire, publishFrame(9, seq)...)
	}
	fourth := publishFrame(9, 4)
	half := len(fourth) / 2
	if _, err := conn.Write(append(wire, fourth[:half]...)); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, 9, 3) // before the other half is even sent
	if got := log.sizes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("bursts at the first ack = %v, want one of 3", got)
	}
	expectSilence(t, conn, 50*time.Millisecond, "for a frame whose second half was never sent")
	if _, err := conn.Write(fourth[half:]); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, 9, 4)
	if got := log.sizes(); len(got) != 2 || got[1] != 1 {
		t.Fatalf("bursts at the second ack = %v, want [3 1]", got)
	}
}

// TestBurstEndsAtControlFrameAndEpoch: a PING between publishes and a
// change of client epoch both end the burst, so replies keep request
// order and every ack speaks for one epoch.
func TestBurstEndsAtControlFrameAndEpoch(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var log burstLog
	b.SubscribeLocal(log.handle)
	conn := rawPeer(t, b)

	var wire bytes.Buffer
	wire.Write(publishFrame(9, 1))
	wire.Write(publishFrame(9, 2))
	_ = writeFrame(&wire, framePingReq, nil)
	wire.Write(publishFrame(9, 3))
	wire.Write(publishFrame(10, 1))
	wire.Write(publishFrame(10, 2))
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, 9, 2)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != framePingResp {
		t.Fatalf("want PINGRESP after the first ack: frame %d, %v", typ, err)
	}
	expectAck(t, conn, 9, 3)
	expectAck(t, conn, 10, 2)
	if got := log.sizes(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("bursts = %v, want [2 1 2]", got)
	}
}

// TestBurstCapAcksEveryMaxDeliverBurst: a publisher that keeps the read
// buffer full still sees an ack every maxDeliverBurst publishes.
func TestBurstCapAcksEveryMaxDeliverBurst(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var log burstLog
	b.SubscribeLocal(log.handle)
	conn := rawPeer(t, b)

	const n = maxDeliverBurst + 10
	var wire []byte
	for seq := uint64(1); seq <= n; seq++ {
		wire = append(wire, publishFrame(9, seq)...)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, 9, maxDeliverBurst)
	expectAck(t, conn, 9, n)
	if got := log.sizes(); len(got) != 2 || got[0] != maxDeliverBurst || got[1] != 10 {
		t.Fatalf("bursts = %v, want [%d 10]", got, maxDeliverBurst)
	}
}

// TestOversizeFrameIsItsOwnBurst: a frame that cannot fit the read
// buffer is read out on its own — after the burst before it was
// delivered, and delivered before the frames behind it.
func TestOversizeFrameIsItsOwnBurst(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var log burstLog
	b.SubscribeLocal(log.handle)
	conn := rawPeer(t, b)

	big := Message{Topic: "/burst/big", Readings: make([]sensor.Reading, 4096), Epoch: 9, Seq: 2} // 64 KiB of readings
	var wire bytes.Buffer
	wire.Write(publishFrame(9, 1))
	_ = writeFrame(&wire, framePublishV2, EncodePublishV2(big))
	wire.Write(publishFrame(9, 3))
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, 9, 1)
	expectAck(t, conn, 9, 2)
	expectAck(t, conn, 9, 3)
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.bursts) != 3 || len(log.bursts[1]) != 1 || log.bursts[1][0].Topic != "/burst/big" {
		t.Fatalf("bursts = %v, want the oversize frame alone in the second", log.bursts)
	}
}

// TestKilledConnectionLeavesNoDecodedBatchBehind: the connection dies
// with half a frame outstanding. The QoS 0 batches ahead of it were
// decoded and must be stored; at QoS 1 a batch is stored and then
// acked, or — the connection gone before the store returned — stored
// and never acked: no ack ever precedes the handler's return.
func TestKilledConnectionLeavesNoDecodedBatchBehind(t *testing.T) {
	t.Run("qos0-prefix-stored", func(t *testing.T) {
		b, err := NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var log burstLog
		b.SubscribeLocal(log.handle)
		conn := rawPeer(t, b)
		var wire []byte
		for seq := uint64(1); seq <= 3; seq++ {
			wire = append(wire, publishFrame(0, seq)...)
		}
		fourth := publishFrame(0, 4)
		if _, err := conn.Write(append(wire, fourth[:len(fourth)/2]...)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		log.waitMessages(t, 3)
	})
	t.Run("qos1-stored-then-acked-or-neither", func(t *testing.T) {
		b, err := NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		log := burstLog{gate: make(chan struct{})}
		b.SubscribeLocal(log.handle)
		conn := rawPeer(t, b)
		var wire []byte
		for seq := uint64(1); seq <= 3; seq++ {
			wire = append(wire, publishFrame(9, seq)...)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		expectSilence(t, conn, 50*time.Millisecond, "while the handler still held the burst")
		if n := b.KillConnections(-1); n != 1 {
			t.Fatalf("killed %d connections, want 1", n)
		}
		close(log.gate)
		log.waitMessages(t, 3) // the store completes on the dying connection
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if typ, _, err := readFrame(conn); err == nil {
			t.Fatalf("frame %d arrived on a connection killed before the store returned", typ)
		}
	})
}

// TestBurstSubscribeDisconnects: SUBSCRIBE (type 4) is reserved. The
// burst ahead of it is stored, then the broker hangs up — a client that
// still asks for a network subscription fails at once instead of waiting
// out its ack timeout. The burst's PubAck may or may not leave before
// the socket closes: stored and acked, or stored and redelivered.
func TestBurstSubscribeDisconnects(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var log burstLog
	b.SubscribeLocal(log.handle)
	conn := rawPeer(t, b)

	var wire bytes.Buffer
	wire.Write(publishFrame(9, 1))
	_ = writeFrame(&wire, frameSubscribe, []byte{1, '#'})
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	log.waitMessages(t, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		typ, _, err := readFrame(conn)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("connection still open after SUBSCRIBE")
		}
		if err != nil {
			return
		}
		if typ != framePubAck {
			t.Fatalf("frame %d answered a SUBSCRIBE", typ)
		}
	}
}
