package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
)

// clientModel is the reference the client is checked against after every
// step: a FIFO of published-but-unacknowledged batch ids and a send
// cursor. The cursor is sent(): how many batches, from the head of the
// FIFO, the live connection must have received and not yet seen acked.
// A killed connection rewinds it — the next connection starts from the
// head again — which the harness expresses by looking only at the
// newest connection's frames. At QoS 0 (retain false) nothing is held
// past the write: the FIFO stays empty and a batch published while
// disconnected is only counted.
type clientModel struct {
	retain  bool  // QoS 1: a batch stays in the FIFO until acked
	window  int   // Options.SpoolBatches: batches held in memory
	fifo    []int // published, unacknowledged, in sequence order
	loose   int   // trailing fifo entries whose mutual order is not yet observed
	acked   int   // batches acknowledged since the last (re)open
	pubs    int   // batches Publish accepted since the last (re)open
	dropped int   // QoS 0 batches published while disconnected since the last (re)open
	kills   int   // connections killed since the last (re)open
	conns   int   // connections the peer must have served in total
}

func (m *clientModel) publish(ids ...int) {
	if m.retain {
		m.fifo = append(m.fifo, ids...)
	}
	m.pubs += len(ids)
}

func (m *clientModel) sent() int { return min(m.window, len(m.fifo)) }

func (m *clientModel) ack(n int) {
	m.fifo = m.fifo[n:]
	m.acked += n
}

func (m *clientModel) kill() { m.kills++; m.conns++ }

// reopen models Close followed by a fresh Dial on the same spool
// directory: counters restart, the FIFO survives only when persisted.
func (m *clientModel) reopen(persisted bool) {
	if !persisted {
		m.fifo = nil
	}
	m.acked, m.pubs, m.dropped, m.kills = 0, 0, 0, 0
	m.conns++
}

// peerFrame is one PUBLISH as the scripted peer saw it.
type peerFrame struct {
	epoch, seq uint64 // zero for an unversioned (v1) PUBLISH
	id         int    // batch identity: the first reading's value
}

// peerConn is one accepted connection; recv, acked and ready are
// guarded by the peer's mutex.
type peerConn struct {
	conn  net.Conn
	wmu   sync.Mutex  // handshake replies vs scripted PubAcks
	recv  []peerFrame // every PUBLISH, in arrival order
	acked int         // recv[:acked] are covered by a PubAck
	ready bool        // CONNECT answered
}

// scriptedPeer is the test-owned broker side: it answers CONNECT and
// PINGREQ, records every PUBLISH per connection, and sends a PubAck only
// when the script says so. While refuse is set it hangs up on every new
// connection unanswered: an outage.
type scriptedPeer struct {
	t      *testing.T
	ln     net.Listener
	mu     sync.Mutex
	conns  []*peerConn
	refuse bool
	wg     sync.WaitGroup
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{t: t, ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			pc := &peerConn{conn: conn}
			p.mu.Lock()
			if p.refuse {
				p.mu.Unlock()
				conn.Close()
				continue
			}
			p.conns = append(p.conns, pc)
			p.mu.Unlock()
			p.wg.Add(1)
			go p.serve(pc)
		}
	}()
	return p
}

func (p *scriptedPeer) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, pc := range p.conns {
		pc.conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *scriptedPeer) setRefuse(on bool) {
	p.mu.Lock()
	p.refuse = on
	p.mu.Unlock()
}

// totalLocked counts every PUBLISH received on any connection; callers
// hold p.mu.
func (p *scriptedPeer) totalLocked() (n int) {
	for _, pc := range p.conns {
		n += len(pc.recv)
	}
	return n
}

func (p *scriptedPeer) reply(pc *peerConn, typ byte, payload []byte) {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	_ = writeFrame(pc.conn, typ, payload) // a dead connection is the script's doing
}

func (p *scriptedPeer) serve(pc *peerConn) {
	defer p.wg.Done()
	for {
		typ, payload, err := readFrame(pc.conn)
		if err != nil {
			return
		}
		switch typ {
		case frameConnect:
			p.reply(pc, frameConnAck, nil)
			p.mu.Lock()
			pc.ready = true
			p.mu.Unlock()
		case framePingReq:
			p.reply(pc, framePingResp, nil)
		case framePublish, framePublishV2:
			var f peerFrame
			if typ == framePublishV2 {
				var off int
				if f.epoch, f.seq, off, err = decodePublishV2Prefix(payload); err != nil {
					p.t.Errorf("peer: bad v2 prefix: %v", err)
					return
				}
				payload = payload[off:]
			}
			msg, err := DecodePublish(payload)
			if err != nil || len(msg.Readings) == 0 {
				p.t.Errorf("peer: bad publish (%d readings): %v", len(msg.Readings), err)
				return
			}
			f.id = int(msg.Readings[0].Value)
			p.mu.Lock()
			pc.recv = append(pc.recv, f)
			p.mu.Unlock()
		case frameDisconnect:
			return
		}
	}
}

// modelRun drives one client through a seeded script and checks it
// against the model after every step.
type modelRun struct {
	t    *testing.T
	rng  *rand.Rand
	peer *scriptedPeer
	opts Options
	c    *Client
	m    clientModel

	nextID   int
	accepted []int // every id Publish queued (returned nil, not dropped)
	laneA    []int // the last two-goroutine publish, per goroutine
	laneB    []int
	// order places each id in the publish partial order: {publish step,
	// goroutine}. Steps are ordered; within one step only each
	// goroutine's own ids are.
	order map[int][2]int

	// blocked is a Publish parked on backpressure: its id, and the
	// channel its result arrives on.
	blockedID int
	blocked   chan error
	// fileOverCap: the spool file holds a record larger than
	// SpoolMaxBytes (persisted by Close), so every capped append fails
	// until the file drains and resets.
	fileOverCap bool
	bigIDs      map[int]bool
}

const (
	modelTopic    = sensor.Topic("/model/t")
	modelSpoolCap = 64 << 10
	modelBigBatch = 8192 // readings: encodes past modelSpoolCap, never fits the disk spool
)

func (r *modelRun) batch(id int, big bool) []sensor.Reading {
	n := 1
	if big {
		n = modelBigBatch
	}
	rs := make([]sensor.Reading, n)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(id), Time: int64(i)}
	}
	return rs
}

func (r *modelRun) newID() int { r.nextID++; return r.nextID }

func (r *modelRun) open() {
	c, err := DialOptions(r.peer.ln.Addr().String(), r.opts)
	if err != nil {
		r.t.Fatalf("dial: %v", err)
	}
	r.c = c
}

// spoolFile decodes the overflow file by hand (docs/FORMATS.md §4): it
// must be a clean sequence of CRC-valid records at every quiescent point.
func (r *modelRun) spoolFile() []peerFrame {
	if r.opts.SpoolDir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(r.opts.SpoolDir, "pusher.spool"))
	if err != nil {
		r.t.Fatalf("reading spool file: %v", err)
	}
	var out []peerFrame
	for off := 0; len(data) > 0; {
		if len(data) < 8 {
			r.t.Fatalf("spool file: torn record header at offset %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[0:4]))
		if n == 0 || len(data) < 8+n || crc32.ChecksumIEEE(data[8:8+n]) != binary.LittleEndian.Uint32(data[4:8]) {
			r.t.Fatalf("spool file: torn or corrupt record at offset %d", off)
		}
		epoch, seq, poff, err := decodePublishV2Prefix(data[8 : 8+n])
		if err != nil {
			r.t.Fatalf("spool file: record at offset %d: %v", off, err)
		}
		msg, err := DecodePublish(data[8+poff : 8+n])
		if err != nil || len(msg.Readings) == 0 {
			r.t.Fatalf("spool file: record at offset %d: %v", off, err)
		}
		out = append(out, peerFrame{epoch: epoch, seq: seq, id: int(msg.Readings[0].Value)})
		data = data[8+n:]
		off += 8 + n
	}
	return out
}

// mismatch compares the client's observable state with the model and
// returns "" when they agree. observed is the retained backlog in
// order: what the live connection holds unacknowledged, then the
// not-yet-loaded tail of the spool file.
func (r *modelRun) mismatch() (why string, observed []int) {
	st := r.c.Stats()
	r.peer.mu.Lock()
	defer r.peer.mu.Unlock()
	if len(r.peer.conns) != r.m.conns {
		return fmt.Sprintf("peer accepted %d connections, model %d", len(r.peer.conns), r.m.conns), nil
	}
	cur := r.peer.conns[len(r.peer.conns)-1]
	if !cur.ready {
		return "handshake incomplete", nil
	}
	switch {
	case st.SpoolDepth+st.SpoolDisk != len(r.m.fifo):
		why = "backlog"
	case st.SpoolDepth != r.m.sent() || r.m.retain && len(cur.recv)-cur.acked != r.m.sent():
		why = "sent cursor"
	case int(st.Acked) != r.m.acked:
		why = "acked"
	case int(st.Published) != r.m.pubs:
		why = "published"
	case int(st.Reconnects) != r.m.kills:
		why = "reconnects"
	case int(st.Dropped) != r.m.dropped:
		why = "dropped"
	case !r.m.retain && r.peer.totalLocked() != len(r.accepted):
		why = fmt.Sprintf("peer received %d frames in total, %d were queued", r.peer.totalLocked(), len(r.accepted))
	}
	if why != "" {
		return fmt.Sprintf("%s: stats %+v, live connection holds %d unacked; model fifo %d sent %d acked %d published %d dropped %d kills %d",
			why, st, len(cur.recv)-cur.acked, len(r.m.fifo), r.m.sent(), r.m.acked, r.m.pubs, r.m.dropped, r.m.kills), nil
	}
	for _, f := range cur.recv[cur.acked:] {
		if r.m.retain {
			observed = append(observed, f.id)
		}
	}
	return "", observed
}

// settle waits for the client to reach the model's quiescent state,
// then checks the backlog's content and order and the per-connection
// sequence invariant.
func (r *modelRun) settle(step string) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var why string
	var observed []int
	for {
		if why, observed = r.mismatch(); why == "" {
			break
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("after %s: client never reached the model's state: %s", step, why)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if file := r.spoolFile(); len(observed) < len(r.m.fifo) {
		tail := len(r.m.fifo) - len(observed)
		if tail > len(file) {
			r.t.Fatalf("after %s: %d batches should be on disk, spool file holds %d records", step, tail, len(file))
		}
		for _, f := range file[len(file)-tail:] {
			observed = append(observed, f.id)
		}
	}
	if r.m.loose > 0 {
		// A two-goroutine publish: any interleaving that keeps each
		// goroutine's own order is correct; adopt the one that happened.
		at := len(r.m.fifo) - r.m.loose
		if !isMerge(observed[at:], r.laneA, r.laneB) {
			r.t.Fatalf("after %s: backlog tail %v is not an order-preserving merge of %v and %v", step, observed[at:], r.laneA, r.laneB)
		}
		copy(r.m.fifo[at:], observed[at:])
		r.m.loose = 0
	}
	if !slices.Equal(observed, r.m.fifo) {
		r.t.Fatalf("after %s: retained backlog %v, model %v", step, observed, r.m.fifo)
	}
	r.peer.mu.Lock()
	defer r.peer.mu.Unlock()
	for ci, pc := range r.peer.conns {
		last := make(map[uint64]uint64)
		for i, f := range pc.recv {
			if (f.epoch != 0) != r.m.retain {
				r.t.Fatalf("after %s: connection %d frame %d: epoch %x — wrong PUBLISH version for the policy", step, ci, i, f.epoch)
			}
			if f.seq <= last[f.epoch] && f.epoch != 0 {
				r.t.Fatalf("after %s: connection %d frame %d: epoch %x seq %d after seq %d", step, ci, i, f.epoch, f.seq, last[f.epoch])
			}
			last[f.epoch] = f.seq
		}
	}
}

// isMerge reports whether got interleaves a and b keeping each one's order.
func isMerge(got, a, b []int) bool {
	for _, id := range got {
		switch {
		case len(a) > 0 && a[0] == id:
			a = a[1:]
		case len(b) > 0 && b[0] == id:
			b = b[1:]
		default:
			return false
		}
	}
	return len(a) == 0 && len(b) == 0
}

// room is how many more small batches Publish accepts without blocking.
func (r *modelRun) room() int {
	if !r.m.retain || r.opts.SpoolDir != "" && !r.fileOverCap {
		return 1 << 30 // QoS 0 holds nothing; the disk spool takes what memory cannot
	}
	return r.m.window - len(r.m.fifo)
}

func (r *modelRun) stepPublish() string {
	k := min(1+r.rng.Intn(6), r.room())
	if k <= 0 {
		return ""
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = r.newID()
		r.order[ids[i]] = [2]int{ids[0], 0}
	}
	r.accepted = append(r.accepted, ids...)
	if k < 2 || r.rng.Intn(2) == 0 {
		for _, id := range ids {
			if err := r.c.Publish(modelTopic, r.batch(id, false)); err != nil {
				r.t.Fatalf("publish %d: %v", id, err)
			}
		}
		r.m.publish(ids...)
		return fmt.Sprintf("publish %v", ids)
	}
	r.laneA, r.laneB = ids[:k/2], ids[k/2:]
	for _, id := range r.laneB {
		r.order[id] = [2]int{ids[0], 1}
	}
	var wg sync.WaitGroup
	for _, lane := range [][]int{r.laneA, r.laneB} {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for _, id := range lane {
				if err := r.c.Publish(modelTopic, r.batch(id, false)); err != nil {
					r.t.Errorf("publish %d: %v", id, err)
				}
			}
		}(lane)
	}
	wg.Wait()
	r.m.publish(ids...)
	if r.m.retain {
		r.m.loose = k
	}
	return fmt.Sprintf("publish %v | %v from two goroutines", r.laneA, r.laneB)
}

// stepOverflow publishes the batch backpressure has no room for: with a
// disk spool an oversize batch while memory is full (disk-full on), in
// memory-only mode any batch past the window. Publish must park until
// acknowledgements make room (disk-full off). With room to spare the
// oversize batch simply enters the memory queue — and may later be
// persisted by Close past SpoolMaxBytes.
func (r *modelRun) stepOverflow() string {
	if r.blocked != nil {
		return ""
	}
	big := r.opts.SpoolDir != ""
	id := r.newID()
	if big {
		r.bigIDs[id] = true
	}
	if len(r.m.fifo) < r.m.window {
		if err := r.c.Publish(modelTopic, r.batch(id, big)); err != nil {
			r.t.Fatalf("publish %d: %v", id, err)
		}
		r.accepted = append(r.accepted, id)
		r.m.publish(id)
		return fmt.Sprintf("publish %d (oversize %v, fits memory)", id, big)
	}
	done := make(chan error, 1)
	rs := r.batch(id, big)
	go func() { done <- r.c.Publish(modelTopic, rs) }()
	r.blockedID, r.blocked = id, done
	return fmt.Sprintf("publish %d into a full spool", id)
}

// checkBlocked asserts the parked publisher is where the model says:
// still parked, or — once admit is true — returned and at the tail.
func (r *modelRun) checkBlocked(step string, admit bool) {
	if r.blocked == nil {
		return
	}
	if !admit {
		select {
		case err := <-r.blocked:
			r.t.Fatalf("after %s: publish %d returned (%v) while the spool had no room for it", step, r.blockedID, err)
		default:
		}
		return
	}
	select {
	case err := <-r.blocked:
		if err != nil {
			r.t.Fatalf("after %s: parked publish %d: %v", step, r.blockedID, err)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatalf("after %s: publish %d still parked though the spool has room", step, r.blockedID)
	}
	r.accepted = append(r.accepted, r.blockedID)
	r.m.publish(r.blockedID)
	r.blocked = nil
}

// stepAck acknowledges the first n batches the live connection holds.
// While a publisher is parked on a full disk spool n is chosen so the
// outcome is decided: either memory stays full behind disk-resident
// batches (it stays parked) or everything drains (it is admitted) — in
// between, whether it or the sender's refill wins the lock is a race
// both outcomes of which are correct.
func (r *modelRun) stepAck(all bool) string {
	sent := r.m.sent()
	if sent == 0 {
		return ""
	}
	n := 1 + r.rng.Intn(sent)
	if all {
		n = sent
	}
	if r.blocked != nil && r.opts.SpoolDir != "" && len(r.m.fifo)-n < r.m.window && n != len(r.m.fifo) {
		if over := len(r.m.fifo) - r.m.window; over > 0 {
			n = 1 + r.rng.Intn(min(over, sent))
		} else {
			n = sent
		}
	}
	r.peer.mu.Lock()
	cur := r.peer.conns[len(r.peer.conns)-1]
	f := cur.recv[cur.acked+n-1]
	cur.acked += n
	r.peer.mu.Unlock()
	r.peer.reply(cur, framePubAck, encodePubAck(nil, f.epoch, f.seq))
	r.m.ack(n)
	if len(r.m.fifo) == 0 {
		r.fileOverCap = false // a drained spool file is truncated
	}
	step := fmt.Sprintf("ack %d (through seq %d)", n, f.seq)
	if r.opts.SpoolDir == "" || len(r.m.fifo) == 0 {
		r.checkBlocked(step, true)
	}
	return step
}

// stepOutage is the QoS 0 half of backpressure: the peer goes away, and
// once the client has noticed, every Publish is dropped and counted —
// never an error, never queued for later. Then the peer comes back.
func (r *modelRun) stepOutage() string {
	r.peer.setRefuse(true)
	r.stepKill()
	for deadline := time.Now().Add(10 * time.Second); r.c.liveConn() != nil; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatal("client never noticed its connection was killed")
		}
	}
	k := 1 + r.rng.Intn(4)
	for i := 0; i < k; i++ {
		if err := r.c.Publish(modelTopic, r.batch(r.newID(), false)); err != nil {
			r.t.Fatalf("publish during an outage: %v", err)
		}
	}
	r.m.dropped += k
	r.peer.setRefuse(false)
	return fmt.Sprintf("outage: kill, %d publishes while disconnected, peer back", k)
}

func (r *modelRun) stepKill() string {
	r.peer.mu.Lock()
	cur := r.peer.conns[len(r.peer.conns)-1]
	r.peer.mu.Unlock()
	cur.conn.Close()
	r.m.kill()
	return "kill connection"
}

// stepReopen closes the client with a drain too short to finish (the
// peer acks nothing unprompted) and dials a new one on the same spool
// directory.
func (r *modelRun) stepReopen() string {
	err := r.c.Close()
	if r.blocked != nil {
		if perr := <-r.blocked; !errors.Is(perr, ErrClosed) {
			r.t.Fatalf("publish %d parked across Close: err = %v, want ErrClosed", r.blockedID, perr)
		}
		r.blocked = nil
	}
	persisted := r.opts.SpoolDir != ""
	switch {
	case persisted || len(r.m.fifo) == 0:
		if err != nil {
			r.t.Fatalf("close: %v", err)
		}
	case !errors.Is(err, ErrSpoolNotDrained):
		r.t.Fatalf("close abandoning %d batches: err = %v, want ErrSpoolNotDrained", len(r.m.fifo), err)
	}
	if persisted {
		var ids []int
		for _, f := range r.spoolFile() {
			ids = append(ids, f.id)
			r.fileOverCap = r.fileOverCap || r.bigIDs[f.id]
		}
		if !slices.Equal(ids, r.m.fifo) {
			r.t.Fatalf("after close: spool file holds %v, model %v", ids, r.m.fifo)
		}
	}
	r.m.reopen(persisted)
	r.open()
	return "close with a short drain, reopen"
}

func runClientModel(t *testing.T, seed int64, opts Options, steps int) {
	peer := newScriptedPeer(t)
	defer peer.close()
	r := &modelRun{
		t: t, rng: rand.New(rand.NewSource(seed)), peer: peer, opts: opts,
		m:      clientModel{retain: opts.SpoolBatches > 0, window: opts.SpoolBatches, conns: 1},
		bigIDs: make(map[int]bool),
		order:  make(map[int][2]int),
	}
	r.open()
	r.settle("open")
	for i := 0; i < steps; i++ {
		var step string
		switch d := r.rng.Intn(20); {
		case d < 7:
			step = r.stepPublish()
		case d < 12:
			step = r.stepAck(false)
		case d < 15 && r.m.retain:
			step = r.stepOverflow()
		case d < 15:
			step = r.stepOutage()
		case d < 18:
			step = r.stepKill()
		default:
			step = r.stepReopen()
		}
		if step == "" {
			continue // not applicable in this state
		}
		step = fmt.Sprintf("step %d: %s", i, step)
		r.settle(step)
		r.checkBlocked(step, false)
	}
	for len(r.m.fifo) > 0 {
		r.settle("final drain: " + r.stepAck(true))
	}
	if r.blocked != nil {
		t.Fatalf("publish %d still parked on an empty spool", r.blockedID)
	}
	if err := r.c.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	if left := r.spoolFile(); len(left) != 0 {
		t.Fatalf("drained client left %d records in the spool file", len(left))
	}
	// QoS 1, at least once: every queued batch reached the peer. QoS 0,
	// at most once: what reached the peer, over all connections in
	// order, is a duplicate-free subsequence of what was published.
	seen := make(map[int]bool)
	lastStep, lastID := 0, make(map[[2]int]int)
	peer.mu.Lock()
	defer peer.mu.Unlock()
	for ci, pc := range peer.conns {
		for _, f := range pc.recv {
			if at, ok := r.order[f.id]; !r.m.retain && (seen[f.id] || !ok || at[0] < lastStep || f.id <= lastID[at]) {
				t.Fatalf("connection %d: batch %d arrived twice, out of publish order, or was never published", ci, f.id)
			} else if !r.m.retain {
				lastStep, lastID[at] = at[0], f.id
			}
			seen[f.id] = true
		}
	}
	for _, id := range r.accepted {
		if r.m.retain && !seen[id] {
			t.Fatalf("batch %d was accepted by Publish and never reached the peer", id)
		}
	}
	t.Logf("%d batches over %d connections", len(r.accepted), r.m.conns)
}

// TestClientModel drives the client with seeded interleavings of
// publish (one and two goroutines), ack-up-to, connection kill,
// backpressure/disk-full (QoS 1) or an outage (QoS 0) and close-reopen
// against a scripted peer, and compares it with clientModel after every
// step: what the live connection holds, the counters, the spool file,
// per-connection sequence order, and at the end the policy's promise —
// nothing queued went unsent (QoS 1), nothing arrived twice (QoS 0).
func TestClientModel(t *testing.T) {
	seed := testseed.Seed(t)
	base := Options{
		AckTimeout:   time.Minute, // the peer withholds acks on purpose: never a stall
		RetryMin:     time.Millisecond,
		RetryMax:     5 * time.Millisecond,
		DrainTimeout: 10 * time.Millisecond,
	}
	t.Run("qos1-disk", func(t *testing.T) {
		opts := base
		opts.SpoolBatches, opts.SpoolDir, opts.SpoolMaxBytes = 4, t.TempDir(), modelSpoolCap
		runClientModel(t, testseed.Derive(seed, "disk"), opts, 250)
	})
	t.Run("qos1-mem", func(t *testing.T) {
		opts := base
		opts.SpoolBatches = 6
		runClientModel(t, testseed.Derive(seed, "mem"), opts, 150)
	})
	t.Run("qos0", func(t *testing.T) {
		runClientModel(t, testseed.Derive(seed, "qos0"), base, 150)
	})
}
