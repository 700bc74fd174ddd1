package transport

import (
	"bufio"
	"encoding/binary"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// BurstHandler consumes what a broker-side local subscription is
// delivered: a burst — the PUBLISH messages one pass over a publisher's
// read buffer decoded, in arrival order, at most maxDeliverBurst of
// them. The slice and every Readings slice in it are owned by the
// connection and reused for the next burst: they are valid only for the
// duration of the call, and a handler that hands any of it to another
// goroutine (or stores it) must copy it first. The topic
// handles (Message.Ref) are the connection's too: they outlive the call
// but not the connection, and are for its goroutine only. Every handler
// is handed the same burst, with redelivered duplicates already dropped:
// a versioned batch reaches the handlers once while its client epoch is
// tracked (see watermarks; always while a connection of the epoch is
// up), and a burst that held only duplicates calls no handler. The
// broker acknowledges the burst's versioned publishes, duplicates
// included, only after every handler returned.
type BurstHandler func([]Message)

// maxDeliverBurst caps the PUBLISH frames delivered, stored and
// acknowledged as one unit. PubAcks are cumulative, so one ack per burst
// confirms all of it; the cap keeps ack progress steady for a publisher
// that never lets the read buffer drain, or its stall detector would
// kill a perfectly healthy connection.
const maxDeliverBurst = 64

// Bounds of a connection's reply path: the replies queued for its writer
// goroutine (the serve loop blocks beyond them), and how long one write
// may take before the connection is torn down.
const (
	ackQueueLen      = 1024
	ackWriteDeadline = 10 * time.Second
)

// burst is one connection's decoded, not yet delivered PUBLISH frames.
// It lives between two blocking reads: the serve loop delivers it before
// it next waits on the socket.
type burst struct {
	msgs  []Message
	arena []sensor.Reading // backs every msgs[i].Readings

	// The newest versioned publish in the burst; one PubAck for it
	// confirms every one before it.
	acked      bool
	epoch, seq uint64
}

// add decodes one v1 PUBLISH payload onto the burst; versioned marks it
// as the body of a v2 publish carrying the delivery identity (epoch, seq).
func (bu *burst) add(body []byte, versioned bool, epoch, seq uint64, intern map[string]*TopicRef) error {
	start := len(bu.arena)
	msg, err := decodePublishInto(body, bu.arena, intern)
	if err != nil {
		return err
	}
	bu.arena = msg.Readings
	// Capacity stops at the batch's end: a handler appending to one
	// message's readings cannot write into the next one's.
	msg.Readings = bu.arena[start:len(bu.arena):len(bu.arena)]
	msg.Epoch, msg.Seq = epoch, seq
	bu.msgs = append(bu.msgs, msg)
	if versioned {
		bu.acked, bu.epoch, bu.seq = true, epoch, seq
	}
	return nil
}

// reset empties the burst, keeping its buffers.
func (bu *burst) reset() {
	bu.msgs, bu.arena, bu.acked = bu.msgs[:0], bu.arena[:0], false
}

// outFrame is one reply queued for a connection's writer goroutine, held
// by value and framed whole: every frame the broker sends — CONNACK,
// PINGRESP, a PubAck's two uvarints — fits in frame, so queueing and
// writing one allocate nothing and share nothing with the serve loop.
type outFrame struct {
	n     uint8
	frame [frameHeader + 2*binary.MaxVarintLen64]byte
}

// brokerConn is one client connection's broker-side state. The serve
// goroutine reads, decodes and stores; every reply goes through a bounded
// queue to the connection's writer goroutine, which writes it under a
// per-frame deadline. The split is for throughput, not safety: it lets
// an ack's write(2) overlap the serve loop's decode and store of the next
// burst. The deadline keeps a peer that stops reading from wedging
// either goroutine.
type brokerConn struct {
	conn net.Conn
	bw   *bufio.Writer

	out      chan outFrame
	dead     chan struct{}
	dieOnce  sync.Once
	deadline time.Duration
}

// die marks the connection dead exactly once and closes the socket,
// releasing the writer goroutine, a pending enqueueAck and the serve
// loop wherever they block.
func (c *brokerConn) die() {
	c.dieOnce.Do(func() { close(c.dead) })
	c.conn.Close()
}

// enqueueAck queues a reply (CONNACK, PINGRESP, PUBACK). It blocks while
// the queue is full — an ack is a delivery promise and is never dropped
// — and returns false only when the connection died, which the writer's
// deadline guarantees happens in bounded time.
func (c *brokerConn) enqueueAck(typ byte, payload []byte) bool {
	var f outFrame
	f.frame[0] = typ
	n := copy(f.frame[frameHeader:], payload)
	binary.BigEndian.PutUint32(f.frame[1:frameHeader], uint32(n))
	f.n = uint8(frameHeader + n)
	select {
	case c.out <- f:
		return true
	case <-c.dead:
		return false
	}
}

// writeLoop is the connection's single writer: it drains the outbound
// queue, arming a fresh write deadline per frame and flushing whenever
// the queue momentarily empties. A write error (including a deadline
// expiry against a peer that stopped reading) kills the connection.
func (c *brokerConn) writeLoop(m *brokerMetrics) {
	var f outFrame // the write's payload escapes: one per connection, not per frame
	for {
		select {
		case f = <-c.out:
			_ = c.conn.SetWriteDeadline(time.Now().Add(c.deadline))
			_, err := c.bw.Write(f.frame[:f.n])
			if err == nil && len(c.out) == 0 {
				err = c.bw.Flush()
			}
			if err != nil {
				m.writeFails.Inc()
				c.die()
				return
			}
		case <-c.dead:
			return
		}
	}
}

// Broker is the message broker at the heart of a Collect Agent: it
// accepts Pusher connections and delivers their publishes, a burst at a
// time, to local handlers registered in-process (the Collect Agent's
// storage path). Versioned (v2) publishes are deduplicated by one
// watermark per client epoch and acknowledged with one cumulative PubAck
// per burst after every local handler returned, which is what makes a
// spooling client's at-least-once delivery land exactly-once in the
// store.
type Broker struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[*brokerConn]struct{}
	closed bool
	// Read under mu as each connection is accepted: its write deadline
	// (ackWriteDeadline) and, when non-zero, its socket send buffer.
	// In-package tests shrink both to make a deaf peer bite quickly.
	writeDeadline time.Duration
	sendBuffer    int

	// locals is a copy-on-write snapshot rebuilt under mu on every (rare)
	// SubscribeLocal, so the per-burst route path reads it with one
	// atomic load — no lock, no allocation.
	locals atomic.Pointer[[]BurstHandler]

	// marks is the dedup table every connection's bursts pass before
	// route.
	marks watermarks

	wg sync.WaitGroup

	// metrics is never nil on a running broker; without a registry the
	// counters are unattached, so route stays unconditional.
	metrics *brokerMetrics
}

// NewBroker starts a broker listening on addr (e.g. "127.0.0.1:0").
// An optional telemetry registry instruments the broker (frame/byte
// counters, connection gauge); at most one may be given.
func NewBroker(addr string, reg ...*telemetry.Registry) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &Broker{ln: ln, conns: make(map[*brokerConn]struct{}), writeDeadline: ackWriteDeadline}
	var r *telemetry.Registry
	if len(reg) > 0 {
		r = reg[0]
	}
	b.metrics = newBrokerMetrics(r, b)
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// SubscribeLocal registers an in-process handler for every message the
// broker receives. Used by the Collect Agent to receive data without a
// network hop. See BurstHandler for the delivery unit and the ownership
// rules of what is delivered.
func (b *Broker) SubscribeLocal(fn BurstHandler) {
	b.mu.Lock()
	var locals []BurstHandler
	if cur := b.locals.Load(); cur != nil {
		locals = append(locals, *cur...)
	}
	locals = append(locals, fn)
	b.locals.Store(&locals)
	b.mu.Unlock()
}

// KillConnections abruptly closes up to n live client connections
// (all of them when n < 0) and returns how many were killed. The
// victims' serve loops observe the closed socket, deregister and tear
// down exactly as they would on a network fault — this is the chaos
// harness's connection-kill fault, not a graceful disconnect. Iteration
// order over the connection map is intentionally left to the runtime:
// chaos scenarios want arbitrary victims.
func (b *Broker) KillConnections(n int) int {
	b.mu.Lock()
	victims := make([]*brokerConn, 0, len(b.conns))
	for c := range b.conns {
		if n >= 0 && len(victims) >= n {
			break
		}
		victims = append(victims, c)
	}
	b.mu.Unlock()
	// Close outside b.mu: serve-loop teardown takes the lock to
	// deregister, and holding it here would invert the shutdown order.
	for _, c := range victims {
		c.die()
	}
	return len(victims)
}

// Close stops the broker and disconnects all clients.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	conns := make([]*brokerConn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	err := b.ln.Close()
	for _, c := range conns {
		c.die()
	}
	b.wg.Wait()
	b.metrics.closeMetrics()
	return err
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		bc := &brokerConn{
			conn: conn,
			bw:   bufio.NewWriterSize(conn, 4<<10),
			out:  make(chan outFrame, ackQueueLen),
			dead: make(chan struct{}),
		}
		b.metrics.connsTotal.Inc()
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[bc] = struct{}{}
		bc.deadline = b.writeDeadline
		sendBuffer := b.sendBuffer
		b.mu.Unlock()
		if tc, ok := conn.(*net.TCPConn); ok && sendBuffer > 0 {
			_ = tc.SetWriteBuffer(sendBuffer)
		}
		b.wg.Add(2)
		go func() {
			defer b.wg.Done()
			bc.writeLoop(b.metrics)
		}()
		go b.serveConn(bc)
	}
}

func (b *Broker) serveConn(bc *brokerConn) {
	defer b.wg.Done()
	defer func() {
		bc.die()
		b.mu.Lock()
		delete(b.conns, bc)
		b.mu.Unlock()
	}()
	// Per-connection scratch, reused burst to burst: the buffered reader
	// whose buffer frames are parsed in, the burst with its decoded
	// readings, the intern table resolving this publisher's (few,
	// recurring) topics to their handles (the one string lookup a publish
	// costs in this package, and the local handlers find what they hung
	// off the handle without one of their own), the dedup watermark of
	// the client epoch it saw last and the PubAck encode buffer. The
	// steady-state publish path allocates nothing.
	br := bufio.NewReaderSize(bc.conn, 32<<10)
	var (
		bu     burst
		mark   *watermark
		ackBuf []byte
	)
	topics := make(map[string]*TopicRef, 64)
	defer func() { b.marks.release(mark) }()
	// deliver drops the pending burst's duplicates, hands the rest to the
	// local handlers, then sends its one PubAck: strictly after route
	// returned, so every local handler has run to completion — and the
	// agent's handler stores the burst before it returns, so an acked
	// batch is in the store, or its first copy was admitted before.
	deliver := func() bool {
		if len(bu.msgs) == 0 {
			return true
		}
		mark = b.dedup(&bu, mark)
		b.route(&bu)
		acked, epoch, seq := bu.acked, bu.epoch, bu.seq
		bu.reset()
		if !acked {
			return true
		}
		ackBuf = encodePubAck(ackBuf, epoch, seq)
		if !bc.enqueueAck(framePubAck, ackBuf) {
			return false
		}
		b.metrics.acks.Inc()
		return true
	}
	for {
		// The burst ends where the loop would have to wait: with no whole
		// frame left in the read buffer — not even when half of one is —
		// it is delivered and acked before the socket is touched. Every
		// return below therefore leaves nothing decoded behind: a read
		// error comes only from a read that had to wait, and the other
		// exits follow a deliver.
		if !frameBuffered(br) && !deliver() {
			return
		}
		typ, payload, held, err := awaitFrame(br)
		if err != nil {
			return
		}
		b.metrics.frames.Inc()
		b.metrics.bytesIn.Add(uint64(len(payload)))
		ok := true
		switch typ {
		case framePublish, framePublishV2:
			var (
				epoch, seq uint64
				derr       error
			)
			body, versioned := payload, typ == framePublishV2
			if versioned {
				var off int
				if epoch, seq, off, derr = decodePublishV2Prefix(payload); derr == nil {
					body = payload[off:]
					// One ack and one watermark cover one epoch: a new
					// client incarnation starts a new burst.
					if bu.acked && epoch != bu.epoch && !deliver() {
						return
					}
				}
			}
			if derr == nil {
				derr = bu.add(body, versioned, epoch, seq, topics)
			}
			if derr != nil {
				b.metrics.dropped.Inc()
				log.Printf("transport: broker: dropping bad publish: %v", derr)
			} else if bu.msgs[len(bu.msgs)-1].Ref == nil {
				b.metrics.uninterned.Inc()
			}
			// A frame too large for the read buffer was read out into a
			// buffer of its own (held == 0): deliver it now and let that go.
			if len(bu.msgs) >= maxDeliverBurst || held == 0 {
				ok = deliver()
			}
		default:
			// Any other frame ends the burst first, keeping the reply
			// stream in request order.
			ok = deliver() && b.control(bc, typ)
		}
		if !ok {
			return
		}
		_, _ = br.Discard(held) // held bytes are buffered: cannot fail
	}
}

// control handles one non-PUBLISH frame, reporting false when the
// connection is to be closed. A SUBSCRIBE closes it: network
// subscription is gone, and a client still asking for it fails at once
// instead of waiting out its ack timeout. Other unknown types are
// ignored.
func (b *Broker) control(bc *brokerConn, typ byte) bool {
	switch typ {
	case frameConnect:
		return bc.enqueueAck(frameConnAck, nil)
	case framePingReq:
		return bc.enqueueAck(framePingResp, nil)
	case frameSubscribe, frameDisconnect:
		return false
	}
	return true
}

// route delivers a burst to the local handlers, each in one call; an
// empty one calls none. The handler snapshot is copy-on-write, so the
// steady-state routing path takes no lock.
func (b *Broker) route(bu *burst) {
	readings := 0
	for _, m := range bu.msgs {
		readings += len(m.Readings)
	}
	b.metrics.routed.Add(uint64(len(bu.msgs)))
	b.metrics.readings.Add(uint64(readings))
	locals := b.locals.Load()
	if locals == nil || len(bu.msgs) == 0 {
		return
	}
	for _, fn := range *locals {
		fn(bu.msgs)
	}
}
