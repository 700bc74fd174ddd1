package transport

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/dcdb/wintermute/internal/reclog"
)

// ClientStats is a snapshot of a client's delivery counters, exposed
// for telemetry (the pusher republishes them as gauges).
type ClientStats struct {
	// SpoolDepth is the number of batches in the in-memory queue
	// (unsent plus sent-but-unacknowledged).
	SpoolDepth int
	// SpoolDisk is the number of overflow batches on disk not yet
	// loaded into memory.
	SpoolDisk int
	// SpoolDiskBytes is the overflow file's current size.
	SpoolDiskBytes int64
	// Published counts batches accepted by Publish.
	Published uint64
	// Acked counts batches the broker acknowledged (QoS 1 only).
	Acked uint64
	// Reconnects counts successful dials after the initial one.
	Reconnects uint64
	// Redeliveries counts batches re-sent after a connection died with
	// them unacknowledged.
	Redeliveries uint64
	// Dropped counts QoS 0 batches published while no connection was
	// live: discarded, never queued.
	Dropped uint64
	// Abandoned counts disk overflow records dropped unsent on refill: a
	// record past its length bound, or whose read, checksum or delivery
	// identity fails, and every record not yet loaded once one cannot be
	// located.
	Abandoned uint64
}

// newEpoch draws a random nonzero client-epoch. Uniqueness across all
// client incarnations that ever reach one agent is what keeps the
// dedup watermarks from crossing streams; 64 random bits make a
// collision negligible where a timestamp (many pushers starting the
// same nanosecond) would not.
func newEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// Crypto randomness is best-effort here; fall back to time.
			return uint64(time.Now().UnixNano()) | 1
		}
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}

// kick wakes the sender without blocking.
func (c *Client) kick() {
	select {
	case c.kickCh <- struct{}{}:
	default:
	}
}

// sendLoop owns the connection lifecycle: dial (with backoff + jitter),
// stream unsent batches, watch the head-of-line ack deadline, redial on
// failure. It exits when the client is closed and the queue is drained,
// or when Close abandons the drain (stopCh).
func (c *Client) sendLoop() {
	defer c.wg.Done()
	backoff := c.opts.RetryMin
	// One timer serves every idle wait. go.mod's go version keeps the
	// pre-1.23 timer semantics, under which a time.After per wait (up to
	// AckTimeout long) stays live until it fires. Between waits the timer
	// is stopped with its channel drained, so Reset starts it clean.
	idle := time.NewTimer(time.Hour)
	if !idle.Stop() {
		<-idle.C
	}
	defer idle.Stop()
	for {
		c.mu.Lock()
		if !c.retain && c.sendIdx > 0 {
			// QoS 0: the burst's write has returned, so its batches are
			// gone whatever it reported — at most once.
			c.popLocked(c.sendIdx)
		}
		if c.closed && c.n == 0 && (c.disk == nil || c.disk.pending == 0) {
			c.mu.Unlock()
			return
		}
		conn, gen := c.conn, c.gen
		if conn == nil {
			c.mu.Unlock()
			select {
			case <-c.stopCh:
				return
			default:
			}
			c2, err := c.dialOnce()
			if err != nil {
				select {
				case <-time.After(jitter(backoff)):
				case <-c.stopCh:
					return
				}
				if backoff *= 2; backoff > c.opts.RetryMax {
					backoff = c.opts.RetryMax
				}
				continue
			}
			backoff = c.opts.RetryMin
			c.mu.Lock()
			// Registration races with Close: stopCh is closed strictly
			// before Close tears down c.conn, so if the dial completed
			// after that teardown this check (under the same lock) sees it
			// and abandons c2 — registering would orphan a receiver on a
			// connection nobody will ever close, wedging Close's Wait.
			select {
			case <-c.stopCh:
				c.mu.Unlock()
				c2.Close()
				return
			default:
			}
			c.conn = c2
			c.gen++
			c.sendIdx = 0 // redeliver everything unacknowledged
			c.lastProgress = time.Now()
			c.stats.Reconnects++
			gen = c.gen
			c.mu.Unlock()
			c.wg.Add(1)
			go c.recvLoop(c2, gen)
			continue
		}
		c.refillLocked()
		if c.sendIdx < c.n {
			// Gather every unsent frame (capped to keep each writev's
			// iovec list bounded) into one vectored write: under
			// sustained load many frames leave per syscall.
			c.iov = c.iovs[:0]
			for c.sendIdx < c.n && len(c.iov) < maxBurst {
				s := c.at(c.sendIdx)
				if s.sent {
					c.stats.Redeliveries++
				}
				s.sent = true
				c.sendIdx++
				c.iov = append(c.iov, s.frame)
			}
			c.mu.Unlock()
			// The sender is the connection's only writer, so the burst
			// leaves whole however many writev calls it takes.
			if _, err := c.iov.WriteTo(conn); err != nil {
				c.connDead(gen)
			}
			continue
		}
		// Idle: wait for new work, and while acks are outstanding watch
		// for ack progress — a connection that swallows frames without
		// ever acking is as dead as a closed one, but one that keeps
		// popping batches (however slowly) is healthy and must not be
		// torn down: every teardown rewinds sendIdx and redelivers the
		// whole spool, so a false positive feeds itself. An ack does not
		// wake this wait unless the disk overflow has batches to refill:
		// it only ever frees queue space, and publishers waiting for that
		// are woken by popLocked; the next Publish kicks the sender.
		wait := c.opts.AckTimeout
		if c.sendIdx > 0 {
			if d := time.Until(c.lastProgress.Add(c.opts.AckTimeout)); d < wait {
				wait = d
			}
		}
		c.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		idle.Reset(wait)
		select {
		case <-c.kickCh:
			if !idle.Stop() {
				<-idle.C
			}
		case <-idle.C:
			c.mu.Lock()
			stuck := c.gen == gen && c.conn != nil && c.sendIdx > 0 &&
				time.Since(c.lastProgress) >= c.opts.AckTimeout
			c.mu.Unlock()
			if stuck {
				conn.Close()
				c.connDead(gen)
			}
		case <-c.stopCh:
			return
		}
	}
}

// refillLocked loads overflow batches into the free slots at the tail
// of the memory queue. The records load gives up — one it skips, or all
// pending after one it cannot locate — are counted in Abandoned; they
// were never acknowledged. Callers hold c.mu.
func (c *Client) refillLocked() {
	for c.disk != nil && c.disk.pending > 0 && c.n < c.opts.SpoolBatches {
		s := c.at(c.n)
		frame, epoch, seq, lost := c.disk.load(s.frame)
		s.frame = frame
		if lost == 0 {
			s.epoch, s.seq = epoch, seq
			c.n++
			continue
		}
		c.stats.Abandoned += uint64(lost)
		c.space.Broadcast() // the overflow shrank: Close may be waiting for it to empty
	}
}

// connDead retires generation gen's connection. At QoS 1 everything
// sent on it but unacknowledged rewinds to unsent for redelivery on the
// next dial; at QoS 0 what was sent stays sent (the sender pops it) and
// publishers waiting for queue space wake to find no connection.
func (c *Client) connDead(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || c.conn == nil {
		c.mu.Unlock()
		return
	}
	conn := c.conn
	c.conn = nil
	if c.retain {
		c.sendIdx = 0
	}
	c.space.Broadcast()
	c.mu.Unlock()
	conn.Close()
	c.kick()
}

// popLocked removes the first k batches — all of them sent — from the
// queue, freeing their slots for reuse. Callers hold c.mu.
func (c *Client) popLocked(k int) {
	for i := 0; i < k; i++ {
		s := c.at(i)
		s.frame, s.sent = recycle(s.frame), false
	}
	if c.head += k; c.head >= len(c.ring) {
		c.head -= len(c.ring)
	}
	c.n -= k
	c.sendIdx -= k
	c.space.Broadcast()
}

// recycle empties a slot's or scratch buffer whose bytes are done with,
// keeping its capacity for the next batch unless it grew past
// maxKeptFrame.
func recycle(buf []byte) []byte {
	if cap(buf) > maxKeptFrame {
		return nil
	}
	return buf[:0]
}

// ack applies one cumulative PubAck read off generation gen's
// connection: every batch at or before (epoch, seq) in send order is
// confirmed routed and leaves the queue. An ack counts only on the
// connection that carried it. The broker acks what it read there, so
// every frame the ack covers has left this client's buffers and its
// slot may be rewritten; a late ack read off a dead connection could
// cover a frame the redial is still writing. What such an ack would have
// popped is redelivered instead, and the broker's dedup drops it.
func (c *Client) ack(gen, epoch, seq uint64) {
	c.mu.Lock()
	if c.gen != gen || c.conn == nil {
		c.mu.Unlock()
		return
	}
	n := 0
	for n < c.sendIdx {
		s := c.at(n)
		if s.epoch == epoch && s.seq > seq {
			break
		}
		n++
		if s.epoch == epoch && s.seq == seq {
			break
		}
	}
	if n > 0 {
		c.stats.Acked += uint64(n)
		c.lastProgress = time.Now()
		c.popLocked(n)
		if c.disk != nil && c.n == 0 && c.disk.pending == 0 {
			c.disk.reset()
		}
	}
	refill := n > 0 && c.disk != nil && c.disk.pending > 0
	c.mu.Unlock()
	if refill {
		// The sender may be idle with the queue it saw fully sent; freed
		// space lets it refill from the disk overflow.
		c.kick()
	}
}

// recvLoop reads one connection until it dies, feeding acks to the
// queue; it ignores every other frame type.
func (c *Client) recvLoop(conn net.Conn, gen uint64) {
	defer c.wg.Done()
	// This loop is the connection's only reader, so buffering is safe;
	// it batches the small PubAck frames into one read syscall each
	// time the broker's coalesced flush lands, and parses each in the
	// read buffer.
	br := bufio.NewReaderSize(conn, 32<<10)
	for {
		typ, payload, held, err := awaitFrame(br)
		if err != nil {
			c.connDead(gen)
			return
		}
		if typ == framePubAck {
			if e, s, derr := decodePubAck(payload); derr == nil {
				c.ack(gen, e, s)
			}
		}
		_, _ = br.Discard(held) // held bytes are buffered: cannot fail
	}
}

// dialOnce makes one connection attempt including the CONNECT handshake.
func (c *Client) dialOnce() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := handshake(conn, c.opts.AckTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake runs CONNECT/CONNACK synchronously under one deadline,
// before the connection is handed to concurrent readers and writers. A
// peer that stays silent past the deadline yields ErrAckTimeout, one
// that answers with the wrong frame type ErrUnexpectedAck.
func handshake(conn net.Conn, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if err := writeFrame(conn, frameConnect, nil); err != nil {
		return err
	}
	got, _, err := readFrame(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrAckTimeout
	}
	if err == nil && got != frameConnAck {
		return ErrUnexpectedAck
	}
	return err
}

// persistRemainder rewrites the disk spool as exactly the
// unacknowledged backlog in publish order: the in-memory queue first
// (its older, memory-born batches precede any disk-loaded ones), then
// the overflow records never loaded — so a restart replays everything
// in the original sequence order the dedup watermark depends on.
// Without a disk spool a QoS 1 remainder is abandoned and reported.
func (c *Client) persistRemainder() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		if c.n > 0 && c.retain {
			return fmt.Errorf("%w: %d batches", ErrSpoolNotDrained, c.n)
		}
		return nil
	}
	payloads := make([][]byte, c.n)
	for i := range payloads {
		payloads[i] = c.at(i).frame[frameHeader:]
	}
	err := c.disk.rewrite(payloads)
	// Persisted is as good as acked: the batches leave the queue.
	c.sendIdx = c.n
	c.popLocked(c.n)
	if err != nil {
		return fmt.Errorf("transport: persisting spool remainder: %w", err)
	}
	return nil
}

// jitter spreads a backoff delay over [d/2, d) so a fleet of clients
// disconnected by the same fault does not redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// oldSpoolPrefix begins a file of the spool's first format, whose
// records began with the magic "SPL1" (u32le). Read as a record log it
// locates nothing and would be truncated as a torn tail: it is refused.
const oldSpoolPrefix = "1LPS"

// maxSpoolRecord bounds a record's payload at load: spooled payloads are
// v2 PUBLISH frames, so anything past the wire frame limit (plus the
// delivery-identity prefix, generously) is corruption, skipped unread.
// SpoolMaxBytes must not bound it: Close persists its remainder past
// that cap on purpose.
const maxSpoolRecord = maxFrameSize + 2*binary.MaxVarintLen64

// diskSpool is the append-only overflow file: a record log (package
// reclog) of v2 publish payloads, appended at the tail, loaded in order
// from a read offset, truncated to empty once every record has been
// loaded and acknowledged. On open, existing records (a previous
// incarnation's unacknowledged remainder) are queued for replay and a
// torn tail is cut off, by the same rule as the tsdb WAL's recovery.
type diskSpool struct {
	path    string
	f       *os.File
	pending int   // records on disk not yet loaded into memory
	readOff int64 // offset of the next record to load
	size    int64 // bytes of located records
	max     int64
	// rec is the client's scratch for encoding one record to append,
	// reused like a queue slot's frame (see recycle).
	rec []byte
}

// openDiskSpool opens (or creates) the overflow file and scans it for
// replayable records.
func openDiskSpool(path string, max int64) (*diskSpool, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	d := &diskSpool{path: path, f: f, max: max}
	if err := d.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// scan walks the file's record headers, counting the located records for
// replay and truncating the torn tail after the last one. It checks no
// CRC — load does, record by record — and keeps no payload, so its
// memory is the read buffer whatever length a header declares. A file in
// the format before the 8-byte frame is refused and left as it is.
func (d *diskSpool) scan() error {
	fi, err := d.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(io.NewSectionReader(d.f, 0, size), 64<<10)
	if hdr, _ := br.Peek(reclog.HeaderSize); bytes.HasPrefix(hdr, []byte(oldSpoolPrefix)) {
		return fmt.Errorf("transport: disk spool %s is in the old SPL1 format: drain it with the previous release, then remove it", d.path)
	}
	for {
		hdr, _ := br.Peek(reclog.HeaderSize)
		n, ok := reclog.Locate(hdr, d.size, size)
		if !ok {
			break
		}
		if _, err := br.Discard(reclog.HeaderSize + int(n)); err != nil {
			return err
		}
		d.size += reclog.HeaderSize + n
		d.pending++
	}
	return d.f.Truncate(d.size)
}

// append writes one record, header and payload in one write, honouring
// the size cap. rec is the whole record: reclog.HeaderSize bytes of
// room, which append fills in, then the payload.
func (d *diskSpool) append(rec []byte) error {
	if d.size+int64(len(rec)) > d.max {
		return fmt.Errorf("transport: disk spool full (%d bytes)", d.size)
	}
	reclog.Seal(rec)
	if _, err := d.f.WriteAt(rec, d.size); err != nil {
		return err
	}
	d.size += int64(len(rec))
	d.pending++
	return nil
}

// load reads the record at the read offset into frame, reusing its
// capacity, as the v2 PUBLISH frame it is sent as: the frame header,
// then the payload. It returns the grown buffer whatever happens, and
// how many records it gave up: one past the length bound, or whose read,
// checksum or delivery identity fails, is skipped; if the record cannot
// be located, no later one can be either, and every pending one goes.
func (d *diskSpool) load(frame []byte) (_ []byte, epoch, seq uint64, lost int) {
	var hdr [reclog.HeaderSize]byte
	off := d.readOff
	_, err := d.f.ReadAt(hdr[:], off)
	sz, ok := reclog.Locate(hdr[:], off, d.size)
	if err != nil || !ok {
		lost, d.pending, d.readOff = d.pending, 0, d.size
		return frame, 0, 0, lost
	}
	d.readOff += reclog.HeaderSize + sz
	d.pending--
	if sz > maxSpoolRecord {
		return frame, 0, 0, 1
	}
	frame = slices.Grow(frame[:0], frameHeader+int(sz))[:frameHeader+int(sz)]
	frame[0] = framePublishV2
	binary.BigEndian.PutUint32(frame[1:frameHeader], uint32(sz))
	payload := frame[frameHeader:]
	if _, err := d.f.ReadAt(payload, off+reclog.HeaderSize); err != nil || !reclog.Check(hdr[:], payload) {
		return frame, 0, 0, 1
	}
	if epoch, seq, _, err = decodePublishV2Prefix(payload); err != nil {
		return frame, 0, 0, 1
	}
	return frame, epoch, seq, 0
}

// rewrite replaces the file's contents, in one write, with records of
// the given payloads (in order) followed by the not-yet-loaded tail
// records, which stay newest: the queue being persisted always predates
// them.
func (d *diskSpool) rewrite(payloads [][]byte) error {
	var buf []byte
	for _, p := range payloads {
		start := len(buf)
		buf = append(append(buf, make([]byte, reclog.HeaderSize)...), p...)
		reclog.Seal(buf[start:])
	}
	tail := len(buf)
	buf = append(buf, make([]byte, d.size-d.readOff)...)
	if _, err := d.f.ReadAt(buf[tail:], d.readOff); err != nil {
		return err
	}
	if err := d.f.Truncate(0); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(buf, 0); err != nil {
		return err
	}
	d.size, d.readOff, d.pending = int64(len(buf)), 0, d.pending+len(payloads)
	return nil
}

// reset truncates a fully-drained file so it does not grow without
// bound across overflow episodes.
func (d *diskSpool) reset() {
	if d.size == 0 {
		return
	}
	if err := d.f.Truncate(0); err == nil {
		d.size = 0
		d.readOff = 0
	}
}

// close syncs and closes the file, leaving persisted records for the
// next incarnation.
func (d *diskSpool) close() error {
	_ = d.f.Sync()
	return d.f.Close()
}
