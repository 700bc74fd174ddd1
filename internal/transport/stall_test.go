package transport

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// stallAckTimeout is the ack-progress deadline both stall-detector cases
// run under: long enough for a loaded race run to answer well inside it.
const stallAckTimeout = 400 * time.Millisecond

// TestStallDetectorRedialsSilentPeer: a peer that completes CONNECT and
// then swallows every PUBLISH without an ack is dead. The client must
// tear the connection down within 2 × AckTimeout of publishing and
// redeliver every batch on the next one.
func TestStallDetectorRedialsSilentPeer(t *testing.T) {
	peer := newScriptedPeer(t) // acks nothing unless told to
	defer peer.close()
	c, err := DialOptions(peer.ln.Addr().String(), Options{
		AckTimeout:   stallAckTimeout,
		SpoolBatches: 16,
		RetryMin:     time.Millisecond,
		DrainTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const batches = 5
	start := time.Now()
	for i := 1; i <= batches; i++ {
		if err := c.Publish("/stall/t", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	redelivered := func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.conns) >= 2 && len(peer.conns[1].recv) == batches
	}
	for !redelivered() {
		if time.Since(start) > 2*stallAckTimeout {
			st := c.Stats()
			t.Fatalf("no redelivery to a second connection within %v of publishing (reconnects %d, redeliveries %d)",
				2*stallAckTimeout, st.Reconnects, st.Redeliveries)
		}
		time.Sleep(time.Millisecond)
	}
	peer.mu.Lock()
	for i, f := range peer.conns[1].recv {
		if f.id != i+1 {
			t.Errorf("redelivered batch %d has id %d, want %d", i, f.id, i+1)
		}
	}
	peer.mu.Unlock()
	if st := c.Stats(); st.Reconnects < 1 || st.Redeliveries == 0 {
		t.Fatalf("after the stall: reconnects %d, redeliveries %d; want >= 1 and > 0", st.Reconnects, st.Redeliveries)
	}
}

// TestStallDetectorSparesSlowPeer: a peer that acknowledges the batches
// of a burst one at a time, each AckTimeout/2 after the one before, is
// slow but making progress. Nothing kicks the idle sender while it
// drains the burst over 3.5 × AckTimeout, so its stall timer fires with
// batches outstanding, and each time it must find the recent progress
// and keep the connection: no reconnect, no redelivery, every batch
// acknowledged once.
func TestStallDetectorSparesSlowPeer(t *testing.T) {
	peer := newScriptedPeer(t)
	defer peer.close()
	c, err := DialOptions(peer.ln.Addr().String(), Options{
		AckTimeout:   stallAckTimeout,
		SpoolBatches: 16,
		RetryMin:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const batches = 7
	for i := 1; i <= batches; i++ {
		if err := c.Publish("/stall/t", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Ack the next frame once stallAckTimeout/2 has passed since both its
	// arrival and the previous ack.
	const delay = stallAckTimeout / 2
	last := time.Now()
	var seen []time.Time // first sighting of conns[0].recv[i]
	for acked := 0; acked < batches; time.Sleep(2 * time.Millisecond) {
		now := time.Now()
		peer.mu.Lock()
		pc := peer.conns[len(peer.conns)-1]
		for len(seen) < len(pc.recv) {
			seen = append(seen, now)
		}
		var f peerFrame
		if pc.acked < len(seen) && now.Sub(seen[pc.acked]) >= delay && now.Sub(last) >= delay {
			f = pc.recv[pc.acked]
			pc.acked++
			acked, last = pc.acked, now
		}
		conns := len(peer.conns)
		peer.mu.Unlock()
		if conns != 1 {
			t.Fatalf("the client redialled a peer that acks every %v: %+v", delay, c.Stats())
		}
		if f.seq != 0 {
			peer.reply(pc, framePubAck, encodePubAck(nil, f.epoch, f.seq))
		}
	}
	for deadline := time.Now().Add(stallAckTimeout); c.Stats().Acked < batches; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("acked %d of %d batches", c.Stats().Acked, batches)
		}
	}
	if st := c.Stats(); st.Reconnects != 0 || st.Redeliveries != 0 {
		t.Fatalf("a slow but acking peer saw reconnects %d, redeliveries %d; want 0 and 0", st.Reconnects, st.Redeliveries)
	}
	peer.mu.Lock()
	conns, recv := len(peer.conns), len(peer.conns[0].recv)
	peer.mu.Unlock()
	if conns != 1 || recv != batches {
		t.Fatalf("peer served %d connections and received %d of %d batches on the first; want 1 and all", conns, recv, batches)
	}
}
