package transport

import (
	"bufio"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Handler consumes published messages delivered to a client-side
// subscription. It receives a private Readings slice and may retain it.
type Handler func(Message)

// BurstHandler consumes what a broker-side local subscription is
// delivered: a burst — the matching PUBLISH messages one pass over a
// publisher's read buffer decoded, in arrival order, at most
// maxDeliverBurst of them. The slice and every Readings slice in it are
// owned by the connection and reused for the next burst: they are valid
// only for the duration of the call, and a handler that hands any of it
// to another goroutine (or stores it) must copy it first. The topic
// handles (Message.Ref) are the connection's too: they outlive the call
// but not the connection, and are for its goroutine only. The broker
// acknowledges the burst's versioned publishes only after every handler
// returned.
type BurstHandler func([]Message)

// maxDeliverBurst caps the PUBLISH frames delivered, stored and
// acknowledged as one unit. PubAcks are cumulative, so one ack per burst
// confirms all of it; the cap keeps ack progress steady for a publisher
// that never lets the read buffer drain, or its stall detector would
// kill a perfectly healthy connection.
const maxDeliverBurst = 64

// burst is one connection's decoded, not yet delivered PUBLISH frames.
// It lives between two blocking reads: bodies alias the connection's
// read buffer, which stays put until the serve loop next waits on the
// socket — and the loop delivers the burst before it does.
type burst struct {
	msgs   []Message
	bodies [][]byte         // each message's v1 payload, for subscriber forwards
	arena  []sensor.Reading // backs every msgs[i].Readings
	match  []Message        // scratch: the subset a filtered handler is handed

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
	bu.bodies = append(bu.bodies, body)
	if versioned {
		bu.acked, bu.epoch, bu.seq = true, epoch, seq
	}
	return nil
}

// reset empties the burst, keeping its buffers.
func (bu *burst) reset() {
	clear(bu.bodies) // an oversize frame's own buffer is garbage from here
	bu.msgs, bu.bodies, bu.arena, bu.acked = bu.msgs[:0], bu.bodies[:0], bu.arena[:0], false
}

// outFrame is one frame queued for a connection's writer goroutine; buf
// is pooled and returns to outBufPool after the write (or the drop).
type outFrame struct {
	typ byte
	buf *[]byte
}

// outBufPool recycles outbound frame payload copies. A frame must be
// copied to cross into the writer goroutine: the serve loop's decode
// buffer is reused for the next frame the moment route returns.
var outBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// makeOutFrame copies payload into a pooled buffer.
func makeOutFrame(typ byte, payload []byte) outFrame {
	buf := outBufPool.Get().(*[]byte)
	*buf = append((*buf)[:0], payload...)
	//lint:ignore poolescape ownership transfer by design: the frame crosses to the connection's single writer goroutine, which returns buf to outBufPool after the write or the drop
	return outFrame{typ: typ, buf: buf}
}

// brokerConn is one client connection's broker-side state. All writes
// go through a bounded outbound queue drained by a single writer
// goroutine under a per-frame write deadline, so a stalled reader can
// neither interleave frames nor wedge the broker: acknowledgements
// enqueue blocking (backpressure on that connection's own serve loop,
// never a drop), subscriber forwards enqueue non-blocking and are
// dropped with a counter when the queue is full.
type brokerConn struct {
	conn net.Conn
	bw   *bufio.Writer

	out      chan outFrame
	dead     chan struct{}
	dieOnce  sync.Once
	deadline time.Duration

	filters []string // network subscriptions; guarded by Broker.mu
}

// die marks the connection dead exactly once and closes the socket,
// releasing the writer goroutine, pending ack enqueuers and the serve
// loop wherever they block.
func (c *brokerConn) die() {
	c.dieOnce.Do(func() { close(c.dead) })
	c.conn.Close()
}

// enqueueAck queues a protocol acknowledgement (CONNACK, SUBACK,
// PINGRESP, PUBACK). It blocks while the queue is full — an ack is a
// delivery promise and must never be dropped — and returns false only
// when the connection died, which the writer's deadline guarantees
// happens in bounded time.
func (c *brokerConn) enqueueAck(typ byte, payload []byte) bool {
	f := makeOutFrame(typ, payload)
	select {
	case c.out <- f:
		return true
	case <-c.dead:
		outBufPool.Put(f.buf)
		return false
	}
}

// enqueueForward queues a publish forward without blocking: a slow
// subscriber sheds load by losing forwards, not by stalling routing.
func (c *brokerConn) enqueueForward(typ byte, payload []byte) bool {
	select {
	case <-c.dead:
		return false
	default:
	}
	f := makeOutFrame(typ, payload)
	select {
	case c.out <- f:
		return true
	default:
		outBufPool.Put(f.buf)
		return false
	}
}

// writeLoop is the connection's single writer: it drains the outbound
// queue, arming a fresh write deadline per frame and flushing whenever
// the queue momentarily empties. A write error (including a deadline
// expiry against a stalled reader) kills the connection.
func (c *brokerConn) writeLoop(m *brokerMetrics) {
	for {
		select {
		case f := <-c.out:
			_ = c.conn.SetWriteDeadline(time.Now().Add(c.deadline))
			err := writeFrame(c.bw, f.typ, *f.buf)
			if err == nil && len(c.out) == 0 {
				err = c.bw.Flush()
			}
			outBufPool.Put(f.buf)
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

// netSub is one entry of the copy-on-write subscriber snapshot: a
// connection and an immutable copy of its filters at snapshot time.
type netSub struct {
	c       *brokerConn
	filters []string
}

// BrokerOptions tunes a broker beyond its defaults.
type BrokerOptions struct {
	// WriteDeadline bounds every frame write to a client connection
	// (default 10s): a subscriber that stops reading is torn down
	// instead of wedging the writer.
	WriteDeadline time.Duration
	// OutQueue bounds each connection's outbound frame queue (default
	// 1024). Acks block on a full queue; subscriber forwards drop.
	OutQueue int
	// Metrics, when set, instruments the broker into this registry.
	Metrics *telemetry.Registry
}

// withDefaults resolves zero option fields.
func (o BrokerOptions) withDefaults() BrokerOptions {
	if o.WriteDeadline <= 0 {
		o.WriteDeadline = 10 * time.Second
	}
	if o.OutQueue <= 0 {
		o.OutQueue = 1024
	}
	return o
}

// Broker is the message broker at the heart of a Collect Agent: it
// accepts Pusher connections, routes published reading batches to network
// subscribers whose filters match, and delivers them, a burst at a time,
// to local handlers registered in-process (the Collect Agent's storage
// path). Versioned (v2) publishes are acknowledged with one cumulative
// PubAck per burst after every local handler returned, which is what
// makes a spooling client's at-least-once delivery land exactly-once in
// the store.
type Broker struct {
	ln   net.Listener
	opts BrokerOptions

	mu     sync.Mutex
	conns  map[*brokerConn]struct{}
	closed bool

	// subs and locals are copy-on-write snapshots rebuilt under mu on
	// every (rare) subscription change, so the per-message route path
	// reads them with one atomic load — no lock, no allocation.
	subs   atomic.Pointer[[]netSub]
	locals atomic.Pointer[[]localSub]

	wg sync.WaitGroup
	// published counts all messages routed, for the footprint experiment.
	published atomic.Uint64

	// metrics is never nil on a running broker; without a registry the
	// counters are unattached, so route stays unconditional.
	metrics *brokerMetrics
}

type localSub struct {
	filter string
	fn     BurstHandler
}

// NewBroker starts a broker listening on addr (e.g. "127.0.0.1:0").
// An optional telemetry registry instruments the broker (frame/byte
// counters, connection gauge); at most one may be given.
func NewBroker(addr string, reg ...*telemetry.Registry) (*Broker, error) {
	var o BrokerOptions
	if len(reg) > 0 {
		o.Metrics = reg[0]
	}
	return NewBrokerOpts(addr, o)
}

// NewBrokerOpts starts a broker with explicit options.
func NewBrokerOpts(addr string, opts BrokerOptions) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &Broker{ln: ln, opts: opts.withDefaults(), conns: make(map[*brokerConn]struct{})}
	b.metrics = newBrokerMetrics(b.opts.Metrics, b)
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Published returns the number of messages routed since start.
func (b *Broker) Published() uint64 { return b.published.Load() }

// SubscribeLocal registers an in-process handler for every message whose
// topic matches filter ('#' wildcard supported). Used by the Collect Agent
// to receive data without a network hop. See BurstHandler for the
// delivery unit and the ownership rules of what is delivered.
func (b *Broker) SubscribeLocal(filter string, fn BurstHandler) {
	b.mu.Lock()
	var locals []localSub
	if cur := b.locals.Load(); cur != nil {
		locals = append(locals, *cur...)
	}
	locals = append(locals, localSub{filter: filter, fn: fn})
	b.locals.Store(&locals)
	b.mu.Unlock()
}

// rebuildSubs regenerates the network-subscriber snapshot. Callers hold
// b.mu. Filters are copied so a later subscribe on the same connection
// cannot mutate a slice the lock-free route path is iterating.
func (b *Broker) rebuildSubs() {
	subs := make([]netSub, 0, len(b.conns))
	for c := range b.conns {
		if len(c.filters) == 0 {
			continue
		}
		subs = append(subs, netSub{c: c, filters: append([]string(nil), c.filters...)})
	}
	b.subs.Store(&subs)
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
			conn:     conn,
			bw:       bufio.NewWriterSize(conn, 4<<10),
			out:      make(chan outFrame, b.opts.OutQueue),
			dead:     make(chan struct{}),
			deadline: b.opts.WriteDeadline,
		}
		b.metrics.connsTotal.Inc()
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[bc] = struct{}{}
		b.mu.Unlock()
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
		if len(bc.filters) > 0 {
			b.rebuildSubs()
		}
		b.mu.Unlock()
	}()
	// Per-connection scratch, reused burst to burst: the buffered reader
	// whose buffer frames are parsed in, the burst with its decoded
	// readings, the intern table resolving this publisher's (few,
	// recurring) topics to their handles — the one string lookup a publish
	// costs in this package, and the local handlers find what they hung
	// off the handle without one of their own — and the PubAck encode
	// buffer. The steady-state publish path allocates nothing outside the
	// pooled outbound copies.
	br := bufio.NewReaderSize(bc.conn, 32<<10)
	var (
		bu     burst
		ackBuf []byte
	)
	topics := make(map[string]*TopicRef, 64)
	// deliver hands the pending burst to the local handlers and the
	// subscribers, then sends its one PubAck: strictly after route
	// returned, so every local handler has run to completion — and the
	// agent's handler stores the burst before it returns, so an acked
	// batch is in the store.
	deliver := func() bool {
		if len(bu.msgs) == 0 {
			return true
		}
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
					// One ack covers one epoch: a new client incarnation
					// starts a new burst.
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
			ok = deliver() && b.control(bc, typ, payload)
		}
		if !ok {
			return
		}
		_, _ = br.Discard(held) // held bytes are buffered: cannot fail
	}
}

// control handles one non-PUBLISH frame, reporting false when the
// connection is to be closed.
func (b *Broker) control(bc *brokerConn, typ byte, payload []byte) bool {
	switch typ {
	case frameConnect:
		return bc.enqueueAck(frameConnAck, nil)
	case frameSubscribe:
		filter, err := decodeString(payload)
		if err != nil {
			return false
		}
		b.mu.Lock()
		bc.filters = append(bc.filters, filter)
		b.rebuildSubs()
		b.mu.Unlock()
		return bc.enqueueAck(frameSubAck, nil)
	case framePingReq:
		return bc.enqueueAck(framePingResp, nil)
	case frameDisconnect:
		return false
	}
	return true
}

// route delivers a burst to the local handlers — each is handed the
// messages its filter matches, in one call — and then forwards every
// message to the matching network subscribers. The forwarded payload is
// the unversioned (v1) encoding — for a v2 publish the delivery prefix is
// already sliced off — so subscribers of any protocol vintage can decode
// it. The subscriber and local-handler snapshots are copy-on-write, so
// the steady-state routing path takes no lock; forwards copy into pooled
// buffers to cross into each subscriber's writer goroutine.
func (b *Broker) route(bu *burst) {
	n := uint64(len(bu.msgs))
	b.published.Add(n)
	b.metrics.routed.Add(n)
	b.metrics.readings.Add(uint64(len(bu.arena)))
	if locals := b.locals.Load(); locals != nil {
		for _, ls := range *locals {
			ms := bu.msgs
			if ls.filter != "#" {
				ms = bu.match[:0]
				for _, m := range bu.msgs {
					if sensor.MatchFilter(ls.filter, m.Topic) {
						ms = append(ms, m)
					}
				}
				bu.match = ms
			}
			if len(ms) > 0 {
				ls.fn(ms)
			}
		}
	}
	subs := b.subs.Load()
	if subs == nil || len(*subs) == 0 {
		return
	}
	for i, m := range bu.msgs {
		payload := bu.bodies[i]
		for _, s := range *subs {
			for _, f := range s.filters {
				if !sensor.MatchFilter(f, m.Topic) {
					continue
				}
				if s.c.enqueueForward(framePublish, payload) {
					b.metrics.forwarded.Inc()
					b.metrics.bytesOut.Add(uint64(len(payload)))
				} else {
					// Slow reader: its queue is full (or it is dead).
					// Dropping the forward here is the load-shedding
					// contract; acks are never dropped.
					b.metrics.slowDrops.Inc()
				}
				break
			}
		}
	}
}
