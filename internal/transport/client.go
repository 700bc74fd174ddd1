package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/reclog"
	"github.com/dcdb/wintermute/internal/sensor"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("transport: client closed")

// ErrAckTimeout reports that the broker did not acknowledge within the
// configured Options.AckTimeout.
var ErrAckTimeout = errors.New("transport: ack timeout")

// ErrUnexpectedAck reports an acknowledgement frame of the wrong type —
// a protocol desync, distinct from the broker simply being slow
// (ErrAckTimeout).
var ErrUnexpectedAck = errors.New("transport: unexpected ack type")

// ErrSpoolNotDrained reports that Close abandoned unacknowledged
// spooled batches: the drain timeout expired and no spool directory was
// configured to persist them.
var ErrSpoolNotDrained = errors.New("transport: close: unacked spooled batches abandoned")

// maxBurst caps how many queued batches one vectored write gathers, and
// is the whole send queue of a QoS 0 client: one burst.
const maxBurst = 256

// maxKeptFrame is the largest buffer a queue slot keeps from one batch
// to the next: a slot whose frame grew past it gives the buffer up when
// popped, so a few huge batches cannot pin SpoolBatches of them.
const maxKeptFrame = 64 << 10

// Options tunes a Client. There is one sender; SpoolBatches only
// decides how long a published batch stays in its queue (zero: QoS 0).
type Options struct {
	// AckTimeout bounds every wait for a broker acknowledgement: the
	// CONNACK round trip and, at QoS 1, the ack-progress watchdog that
	// declares a silent connection dead. Default 5s.
	AckTimeout time.Duration
	// SpoolBatches selects the retention policy. Either way Publish
	// appends to a bounded queue and returns; the sender goroutine
	// streams the queue to the broker in vectored bursts and redials
	// with exponential backoff after connection loss.
	//
	// > 0 is QoS 1, at-least-once: a batch (a v2 PUBLISH frame) stays
	// queued until the broker acknowledges it, everything unacknowledged
	// is redelivered on the next connection, and Publish blocks
	// (backpressure) once SpoolBatches batches are in flight.
	//
	// 0 is QoS 0, at-most-once: a batch (a v1 PUBLISH frame) leaves the
	// queue with the burst that wrote it and is never re-sent; one
	// published while no connection is live is dropped and counted
	// (ClientStats.Dropped), so a dead broker never blocks sampling.
	SpoolBatches int
	// SpoolDir, when set with SpoolBatches, enables on-disk overflow:
	// batches beyond the in-memory high-water mark spill to an
	// append-only file in this directory, and Close persists whatever
	// remains unacknowledged so a restarted client (same SpoolDir)
	// replays it in order.
	SpoolDir string
	// SpoolMaxBytes caps the overflow file (default 64 MiB). A full
	// file degrades to in-memory backpressure.
	SpoolMaxBytes int64
	// RetryMin and RetryMax bound the reconnect backoff (defaults 50ms
	// and 2s); each failed dial doubles the delay, jittered, up to
	// RetryMax.
	RetryMin time.Duration
	// RetryMax is the reconnect backoff ceiling (see RetryMin).
	RetryMax time.Duration
	// DrainTimeout bounds how long Close keeps the sender alive waiting
	// for queued batches to leave (default 5s). On expiry a QoS 1
	// remainder is persisted to SpoolDir when configured, otherwise
	// abandoned with ErrSpoolNotDrained; a QoS 0 one is just dropped.
	DrainTimeout time.Duration
}

// withDefaults resolves zero option fields.
func (o Options) withDefaults() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.SpoolBatches <= 0 {
		o.SpoolBatches = maxBurst
	}
	if o.SpoolMaxBytes <= 0 {
		o.SpoolMaxBytes = 64 << 20
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = o.RetryMin
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Client is the Pusher-side MQTT-style client: it publishes reading
// batches to the broker through a bounded batch queue with optional disk
// overflow, one sender goroutine that owns dialling and redialling, and
// one receive loop per live connection. Options.SpoolBatches picks the
// retention policy. Past the CONNECT handshake the sender is the only
// writer to a connection, so its frames cannot interleave with others.
//
// Queue discipline: the queue is a ring of SpoolBatches slots, each
// holding one batch's whole frame in a buffer it reuses. Of the n queued
// batches, oldest first from head, the first sendIdx have been written
// to the current connection and the rest are unsent. At QoS 1 the sent
// batches await acks. PubAcks are cumulative — TCP delivers frames in
// order, so an ack for (epoch, seq) proves the broker routed every
// earlier batch sent on the same connection — and pop from the head;
// when a connection dies sendIdx rewinds to zero and everything
// unacknowledged is redelivered. At QoS 0 the sent batches pop as soon
// as their burst's write returns, whatever it reports, and a dead
// connection rewinds nothing. Either way a slot is rewritten only once
// popped, and popped only once no write can still read its frame.
type Client struct {
	addr string
	opts Options // resolved: SpoolBatches is the queue bound at either QoS
	// retain is the QoS 1 policy: batches stay queued until acked.
	retain bool
	epoch  uint64

	mu      sync.Mutex
	space   sync.Cond // signalled when queue space frees or state changes
	ring    []slot    // SpoolBatches slots
	head    int       // ring index of the oldest queued batch
	n       int       // queued batches
	sendIdx int
	nextSeq uint64
	conn    net.Conn // nil between redials
	gen     uint64   // connection generation, guards stale teardowns
	closed  bool
	disk    *diskSpool // nil without SpoolDir

	// lastProgress is the last moment this connection demonstrably moved
	// acknowledgements forward: set at registration and on every ack that
	// pops batches. The stall detector keys on it rather than on the
	// head batch's send time — under sustained pipelining the head is
	// re-stamped only on redelivery, so send age would condemn a healthy
	// but merely slow connection and trigger a redelivery storm.
	lastProgress time.Time

	stats ClientStats // counters; the depth fields are filled in by Stats

	kickCh chan struct{} // wakes the sender (cap 1)
	stopCh chan struct{} // closed when Close stops draining
	wg     sync.WaitGroup

	// Vectored-send scratch, owned by the sender goroutine: iov holds one
	// frame per queued batch, so a burst leaves in one writev. A write
	// consumes iov from the front, so each burst restarts it on iovs.
	iov  net.Buffers
	iovs [maxBurst][]byte
}

// slot is one place in the queue ring: one batch's frame — the frame
// header, then the payload — in a buffer the slot keeps from batch to
// batch, plus, at QoS 1, the delivery identity the payload carries.
type slot struct {
	epoch, seq uint64
	frame      []byte
	sent       bool // written to some connection: a later write is a redelivery
}

// Dial connects and performs the CONNECT handshake with default
// options (QoS 0).
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit options: it replays any existing
// disk spool, makes the initial connection (failing fast on
// misconfiguration) and starts the sender, which absorbs later
// connection loss by redialling.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{
		addr:   addr,
		opts:   opts.withDefaults(),
		retain: opts.SpoolBatches > 0,
		epoch:  newEpoch(),
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	c.ring = make([]slot, c.opts.SpoolBatches)
	c.space.L = &c.mu
	if c.retain && opts.SpoolDir != "" {
		d, err := openDiskSpool(filepath.Join(opts.SpoolDir, "pusher.spool"), c.opts.SpoolMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("transport: opening disk spool: %w", err)
		}
		c.disk = d
	}
	conn, err := c.dialOnce()
	if err != nil {
		if c.disk != nil {
			c.disk.close()
		}
		return nil, err
	}
	c.conn = conn
	c.gen = 1
	c.lastProgress = time.Now()
	c.wg.Add(2)
	go c.recvLoop(conn, 1)
	go c.sendLoop()
	return c, nil
}

// encodeLocked encodes one publish into buf, reusing its capacity and
// growing it at most once: room bytes the caller fills in with a
// header, then a v2 payload carrying the next sequence number at QoS 1,
// which it returns, or the plain v1 payload at QoS 0. Callers hold c.mu
// — sequences are assigned in queue order.
func (c *Client) encodeLocked(buf []byte, room int, topic sensor.Topic, readings []sensor.Reading) ([]byte, uint64) {
	m := Message{Topic: topic, Readings: readings}
	if !c.retain {
		return appendPublish(slices.Grow(buf[:0], room+publishSize(m))[:room], m), 0
	}
	c.nextSeq++
	m.Epoch, m.Seq = c.epoch, c.nextSeq
	return appendPublishV2(slices.Grow(buf[:0], room+publishV2Size(m))[:room], m), m.Seq
}

// at returns the ring slot of the queue's i-th batch from the head; i ==
// c.n is the free slot at the tail. Callers hold c.mu.
func (c *Client) at(i int) *slot {
	if i += c.head; i >= len(c.ring) {
		i -= len(c.ring)
	}
	return &c.ring[i]
}

// Publish queues one batch of readings for a topic and returns; the
// sender goroutine writes it. It is safe for concurrent use. The
// readings slice is fully encoded before Publish returns and is never
// retained — callers (e.g. the Pusher's pooled forwarding buffers) may
// reuse it immediately. The only error is ErrClosed.
//
// At QoS 1 Publish blocks only when both the disk overflow (if any) and
// the in-memory queue are at capacity — backpressure, not loss. At
// QoS 0 it blocks only while a full burst is mid-write, and a batch
// published while no connection is live is dropped and counted.
func (c *Client) Publish(topic sensor.Topic, readings []sensor.Reading) error {
	c.mu.Lock()
	// Order is sacred: the broker's dedup watermark assumes an epoch's
	// sequence numbers arrive monotonically, so sequences are assigned
	// at enqueue time under a continuously-held lock (never across a
	// cond wait — a concurrent publisher could slip a later sequence in
	// front), and a batch may only enter the memory queue behind every
	// disk-resident batch. While the overflow file holds anything, all
	// new batches go to its tail. Both destination checks live in ONE
	// loop re-evaluated after every wait: a publisher that blocked on a
	// full disk must return to the disk path whenever disk.pending rises
	// again while it slept (a concurrent publisher's append succeeded),
	// or its memory enqueue would jump ahead of a lower-sequence
	// disk-resident batch — which the dedup watermark would then reject
	// on replay even though the broker acked it: acked data loss.
	for {
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if !c.retain && c.conn == nil {
			c.stats.Dropped++
			c.mu.Unlock()
			return nil
		}
		if c.disk != nil && (c.disk.pending > 0 || c.n >= c.opts.SpoolBatches) {
			rec, _ := c.encodeLocked(c.disk.rec, reclog.HeaderSize, topic, readings)
			err := c.disk.append(rec)
			c.disk.rec = recycle(rec)
			if err == nil {
				c.stats.Published++
				c.mu.Unlock()
				c.kick()
				return nil
			}
			// Disk full (or failing): the sequence just burnt is
			// discarded (gaps are harmless to a high-water mark) and the
			// publisher waits for state to change before re-deciding
			// where this batch may go.
			c.space.Wait()
			continue
		}
		if c.n >= c.opts.SpoolBatches {
			c.space.Wait()
			continue
		}
		break
	}
	// The tail slot is free: popped, so no write still reads its frame.
	s := c.at(c.n)
	frame, seq := c.encodeLocked(s.frame, frameHeader, topic, readings)
	frame[0] = framePublish
	if c.retain {
		frame[0] = framePublishV2
		s.epoch = c.epoch
	}
	binary.BigEndian.PutUint32(frame[1:frameHeader], uint32(len(frame)-frameHeader))
	s.frame, s.seq = frame, seq
	c.n++
	c.stats.Published++
	c.mu.Unlock()
	c.kick()
	return nil
}

// Stats returns a snapshot of the client's delivery counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.SpoolDepth = c.n
	if c.disk != nil {
		st.SpoolDisk = c.disk.pending
		st.SpoolDiskBytes = c.disk.size
	}
	return st
}

// Close drains the queue (bounded by Options.DrainTimeout), persists
// any QoS 1 remainder to the disk spool when one is configured — the
// error reports batches that could be neither delivered nor persisted —
// then stops the sender and receiver. It writes nothing to the
// connection: closing it hands the broker an EOF, on which the broker
// delivers what it has read, as it would on a DISCONNECT.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.space.Broadcast() // publishers blocked on backpressure get ErrClosed
	c.kick()
	// Every change that can drain the queue broadcasts c.space; so does
	// the timer, once the drain has run out of time.
	expired := false
	timer := time.AfterFunc(c.opts.DrainTimeout, func() {
		c.mu.Lock()
		expired = true
		c.space.Broadcast()
		c.mu.Unlock()
	})
	for !expired && (c.n > 0 || c.disk != nil && c.disk.pending > 0) {
		c.space.Wait()
	}
	c.mu.Unlock()
	timer.Stop()
	var err error
	if expired {
		err = c.persistRemainder()
	}
	close(c.stopCh)
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close() // also unblocks a sender wedged mid-write
	}
	c.wg.Wait()
	if c.disk != nil {
		if derr := c.disk.close(); err == nil {
			err = derr
		}
	}
	return err
}
