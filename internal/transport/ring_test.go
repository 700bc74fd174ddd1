package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Tests for the client's queue ring: a slot's frame buffer is reused
// batch after batch, so a publish allocates nothing once warm, and a
// slot is rewritten only once no write can still read its frame.

// ackPeer is a broker stand-in that acknowledges every versioned
// PUBLISH the moment it has parsed it, unless hold is set, and does so
// without allocating, so allocation counts taken while it runs are the
// client's. onFrame, when set, sees every PUBLISH payload.
type ackPeer struct {
	ln      net.Listener
	hold    atomic.Bool
	frames  atomic.Uint64 // PUBLISH frames read
	onFrame func(typ byte, payload []byte)

	mu       sync.Mutex // guards conn, ack, epoch and seq
	conn     net.Conn
	ack      []byte // the PubAck frame being written
	epoch    uint64 // identity of the newest versioned PUBLISH read
	seq      uint64
	finished chan struct{}
}

func newAckPeer(t *testing.T, onFrame func(byte, []byte)) *ackPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackPeer{ln: ln, onFrame: onFrame, finished: make(chan struct{})}
	go p.serve(t)
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
		<-p.finished
	})
	return p
}

// serve answers one connection: the CONNECT, then every PUBLISH.
func (p *ackPeer) serve(t *testing.T) {
	defer close(p.finished)
	conn, err := p.ln.Accept()
	if err != nil {
		t.Error(err)
		return
	}
	// A receive buffer well below the socket's autotuned one lets a
	// client's unacked frames outgrow what the kernel buffers, so its
	// bursts block mid-write. It stays above the loopback segment size:
	// a window smaller than one segment stalls the stream for the
	// sender's persist timer.
	if err := conn.(*net.TCPConn).SetReadBuffer(256 << 10); err != nil {
		t.Error(err)
	}
	p.mu.Lock()
	p.conn = conn
	p.mu.Unlock()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		typ, payload, held, err := awaitFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case frameConnect:
			if err := writeFrame(conn, frameConnAck, nil); err != nil {
				return
			}
		case framePublish, framePublishV2:
			if p.onFrame != nil {
				p.onFrame(typ, payload)
			}
			if typ == framePublishV2 {
				epoch, seq, _, err := decodePublishV2Prefix(payload)
				if err != nil {
					t.Errorf("peer: %v", err)
					return
				}
				p.mu.Lock()
				p.epoch, p.seq = epoch, seq
				p.mu.Unlock()
				if !p.hold.Load() {
					p.sendAck()
				}
			}
			p.frames.Add(1)
		}
		_, _ = br.Discard(held)
	}
}

// sendAck acknowledges the newest versioned PUBLISH read so far.
func (p *ackPeer) sendAck() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ack = append(p.ack[:0], framePubAck, 0, 0, 0, 0)
	p.ack = binary.AppendUvarint(p.ack, p.epoch)
	p.ack = binary.AppendUvarint(p.ack, p.seq)
	binary.BigEndian.PutUint32(p.ack[1:frameHeader], uint32(len(p.ack)-frameHeader))
	_, _ = p.conn.Write(p.ack) // a dead connection fails the test elsewhere
}

// release ends a hold: what was read meanwhile is acked now, and every
// later frame as it arrives.
func (p *ackPeer) release() {
	p.hold.Store(false)
	p.sendAck()
}

// waitFor polls until done reports true, failing the test after a
// while. Past a goroutine's first sleep, neither allocates.
func waitFor(t *testing.T, what string, done func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestPublishSteadyStateAllocFree: once the queue's slots, the overflow
// scratch and the connection's buffers have grown to the batch size,
// publishing a batch and draining it allocates nothing — at QoS 1 with
// the memory queue alone, at QoS 1 with the disk overflow taking
// batches and refilling the queue from them, and at QoS 0.
func TestPublishSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	batch := make([]sensor.Reading, 10)
	for i := range batch {
		batch[i] = sensor.Reading{Value: float64(i), Time: int64(i)}
	}
	const topic = sensor.Topic("/alloc/n01/power")
	dial := func(t *testing.T, opts Options) (*Client, *ackPeer) {
		p := newAckPeer(t, nil)
		c, err := DialOptions(p.ln.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, p
	}
	publish := func(t *testing.T, c *Client) {
		if err := c.Publish(topic, batch); err != nil {
			t.Fatal(err)
		}
	}
	// The polled conditions are built once per client: a closure built
	// inside a measured op could count as the op's allocation.
	drained := func(c *Client) func() bool {
		return func() bool { st := c.Stats(); return st.SpoolDepth == 0 && st.SpoolDisk == 0 }
	}
	// Warm-up fills every slot of the largest ring, QoS 0's maxBurst, once.
	measure := func(t *testing.T, op func()) {
		for i := 0; i < maxBurst+10; i++ {
			op()
		}
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Fatalf("a published and drained batch allocates %.1f times", n)
		}
	}

	t.Run("qos1-memory", func(t *testing.T) {
		c, _ := dial(t, Options{SpoolBatches: 16})
		acked := drained(c)
		measure(t, func() {
			publish(t, c)
			waitFor(t, "the ack", acked)
		})
	})
	t.Run("qos1-disk-refill", func(t *testing.T) {
		const window = 4
		c, p := dial(t, Options{SpoolBatches: window, SpoolDir: t.TempDir()})
		spilled, empty := 0, drained(c)
		measure(t, func() {
			// While acks are held the window fills and the rest of the
			// batches spill to disk; released, they refill the queue.
			p.hold.Store(true)
			for i := 0; i < 3*window; i++ {
				publish(t, c)
			}
			if c.Stats().SpoolDisk > 0 {
				spilled++
			}
			p.release()
			waitFor(t, "the overflow to drain", empty)
		})
		if spilled == 0 {
			t.Fatal("no batch went through the disk overflow")
		}
		if st := c.Stats(); st.Abandoned != 0 || st.Acked != st.Published {
			t.Fatalf("stats %+v: every batch should be acked", st)
		}
	})
	t.Run("qos0", func(t *testing.T) {
		c, p := dial(t, Options{})
		sent := uint64(0)
		arrived := func() bool { return p.frames.Load() == sent }
		measure(t, func() {
			publish(t, c)
			sent++
			waitFor(t, "the frame", arrived)
		})
	})
}

// ringBatch is the k-th batch of publisher pub: its length and every
// reading follow from (pub, k), so a frame whose bytes were rewritten
// mid-write cannot decode to a batch that checks out. Lengths vary so
// that the frames in a slot's buffer do too, and stay below
// maxKeptFrame so that slots keep their buffers.
func ringBatch(pub, k int) []sensor.Reading {
	rs := make([]sensor.Reading, 1+(k*37+pub*11)%3700)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(pub<<20 | k), Time: int64(k)<<16 | int64(i)}
	}
	return rs
}

// TestAckedSlotReuseKeepsBurstIntact: two publishers keep a ring of 256
// slots full of frames up to 59 KB long — megabytes, more than the
// socket buffers hold — while a slow peer acks every frame the moment it
// has parsed it, so bursts block mid-write and acks land in them. At QoS 1 those acks free slots whose
// frames the same burst has written, and publishers rewrite them while
// the write goes on; at QoS 0 slots free when the burst's write returns.
// Every frame must decode to exactly the batch published under it, each
// publisher's batches arriving once and in order, and at QoS 1 under
// consecutive sequence numbers of one epoch.
func TestAckedSlotReuseKeepsBurstIntact(t *testing.T) {
	for _, qos1 := range []bool{true, false} {
		t.Run(fmt.Sprintf("qos1=%v", qos1), func(t *testing.T) {
			const pubs, perPub = 2, 400
			var (
				mu      sync.Mutex
				next    [pubs]int // the next k expected from each publisher
				lastSeq uint64
				epoch   uint64
				bad     string
			)
			check := func(typ byte, payload []byte) {
				time.Sleep(50 * time.Microsecond) // slow enough that the client's writes block
				mu.Lock()
				defer mu.Unlock()
				if bad != "" {
					return
				}
				if qos1 != (typ == framePublishV2) {
					bad = fmt.Sprintf("frame type %d at qos1=%v", typ, qos1)
					return
				}
				if typ == framePublishV2 {
					e, s, off, err := decodePublishV2Prefix(payload)
					if err != nil {
						bad = err.Error()
						return
					}
					if epoch == 0 {
						epoch = e
					}
					if e != epoch || s != lastSeq+1 {
						bad = fmt.Sprintf("identity (%d, %d) after (%d, %d)", e, s, epoch, lastSeq)
						return
					}
					lastSeq = s
					payload = payload[off:]
				}
				m, err := DecodePublish(payload)
				if err != nil || len(m.Readings) == 0 {
					bad = fmt.Sprintf("undecodable frame (%d readings): %v", len(m.Readings), err)
					return
				}
				id := int(m.Readings[0].Value)
				pub, k := id>>20, id&(1<<20-1)
				if pub >= pubs || k != next[pub] {
					bad = fmt.Sprintf("batch (%d, %d) arrived; expected publisher %d's batch %d", pub, k, pub, next[min(pub, pubs-1)])
					return
				}
				next[pub]++
				want := ringBatch(pub, k)
				if len(m.Readings) != len(want) || m.Topic != "/ring/t" {
					bad = fmt.Sprintf("batch (%d, %d): %d readings on %q, want %d on /ring/t", pub, k, len(m.Readings), m.Topic, len(want))
					return
				}
				for i, r := range m.Readings {
					if r != want[i] {
						bad = fmt.Sprintf("batch (%d, %d): reading %d is %+v, want %+v", pub, k, i, r, want[i])
						return
					}
				}
			}
			p := newAckPeer(t, check)
			opts := Options{}
			if qos1 {
				opts.SpoolBatches = maxBurst
			}
			c, err := DialOptions(p.ln.Addr().String(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pub := 0; pub < pubs; pub++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < perPub; k++ {
						if err := c.Publish("/ring/t", ringBatch(pub, k)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			published := make(chan struct{})
			go func() { wg.Wait(); close(published) }()
			select {
			case <-published:
			case <-time.After(20 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("publishers still blocked after 20s (stats %+v); first bad frame: %q", c.Stats(), bad)
			}
			waitFor(t, "every frame", func() bool { return p.frames.Load() == pubs*perPub })
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if bad != "" {
				t.Fatal(bad)
			}
			st := c.Stats()
			if st.Dropped != 0 || st.Redeliveries != 0 || st.Reconnects != 0 || qos1 && st.Acked != pubs*perPub {
				t.Fatalf("stats %+v: one connection should have carried every batch once", st)
			}
		})
	}
}
