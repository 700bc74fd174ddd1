package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// recorder collects delivered (epoch, seq) pairs per topic from a
// broker-side local subscription.
type recorder struct {
	mu     sync.Mutex
	seqs   map[sensor.Topic][]uint64
	epochs map[sensor.Topic][]uint64
	values map[sensor.Topic][]float64
}

func newRecorder() *recorder {
	return &recorder{
		seqs:   make(map[sensor.Topic][]uint64),
		epochs: make(map[sensor.Topic][]uint64),
		values: make(map[sensor.Topic][]float64),
	}
}

func (r *recorder) handle(m Message) {
	r.mu.Lock()
	r.seqs[m.Topic] = append(r.seqs[m.Topic], m.Seq)
	r.epochs[m.Topic] = append(r.epochs[m.Topic], m.Epoch)
	if len(m.Readings) > 0 {
		r.values[m.Topic] = append(r.values[m.Topic], m.Readings[0].Value)
	}
	r.mu.Unlock()
}

func (r *recorder) count(topic sensor.Topic) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs[topic])
}

// TestReliablePublishAckDrain: a spooling client's batches are all
// acknowledged, Close drains cleanly, and the broker counted the acks.
func TestReliablePublishAckDrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := NewBroker("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := newRecorder()
	b.SubscribeLocal(each(rec.handle))

	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Publish("/rel/a", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close did not drain: %v", err)
	}
	st := c.Stats()
	if st.Acked != n {
		t.Fatalf("acked %d batches, want %d", st.Acked, n)
	}
	if st.Published != n {
		t.Fatalf("published %d batches, want %d", st.Published, n)
	}
	if got := rec.count("/rel/a"); got != n {
		t.Fatalf("delivered %d batches, want %d", got, n)
	}
	// Acks are cumulative and the broker coalesces them across a
	// pipelined burst, so the frame count is 1..n — never more.
	if v, _ := reg.Value("dcdb_broker_pubacks_total"); v < 1 || uint64(v) > n {
		t.Fatalf("broker sent %v ack frames, want between 1 and %d", v, n)
	}
}

// TestReliableRedeliveryAfterKill: killing the connection mid-stream
// loses nothing — unacked batches are redelivered after the automatic
// reconnect, and every sequence up to the last is delivered (the broker
// drops duplicates; TestDedupDropsRealClientRedelivery pins that).
func TestReliableRedeliveryAfterKill(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := newRecorder()
	b.SubscribeLocal(each(rec.handle))

	c, err := DialOptions(b.Addr(), Options{
		SpoolBatches: 64,
		RetryMin:     5 * time.Millisecond,
		AckTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Publish("/rel/kill", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if i == 40 || i == 120 {
			b.KillConnections(-1)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close did not drain: %v", err)
	}
	if c.Stats().Reconnects == 0 {
		t.Fatal("expected at least one reconnect after kills")
	}
	// Every sequence must be delivered at least once.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	seen := make(map[uint64]bool)
	var maxSeen uint64
	for _, s := range rec.seqs["/rel/kill"] {
		seen[s] = true
		if s > maxSeen {
			maxSeen = s
		}
	}
	missing := 0
	for s := uint64(1); s <= maxSeen; s++ {
		if !seen[s] {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d sequences never delivered", missing, maxSeen)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct sequences, want %d", len(seen), n)
	}
}

// TestReliableDiskSpoolRestart: batches spooled while the broker is
// down survive Close via the disk spool, and a restarted client (same
// spool directory) replays them in the original order.
func TestReliableDiskSpoolRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	c, err := DialOptions(addr, Options{
		SpoolBatches: 4,
		SpoolDir:     dir,
		RetryMin:     5 * time.Millisecond,
		DrainTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Take the broker away, then publish: 4 batches stay in memory, the
	// rest overflow to disk.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.Publish("/rel/disk", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.SpoolDisk == 0 {
		t.Fatalf("expected disk overflow, stats %+v", st)
	}
	// Close cannot drain (no broker): everything must persist, no error.
	if err := c.Close(); err != nil {
		t.Fatalf("close with disk spool: %v", err)
	}

	// Restart broker and client: the spool replays in order.
	b2, err := NewBroker(addr)
	if err != nil {
		t.Fatalf("rebinding broker addr: %v", err)
	}
	defer b2.Close()
	rec := newRecorder()
	b2.SubscribeLocal(each(rec.handle))
	c2, err := DialOptions(addr, Options{
		SpoolBatches: 4,
		SpoolDir:     dir,
		RetryMin:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil { // Close drains the replayed spool
		t.Fatalf("close after replay: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	vals := rec.values["/rel/disk"]
	if len(vals) != n {
		t.Fatalf("replayed %d batches, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("replay out of order: batch %d has value %v", i, v)
		}
	}
	seqs := rec.seqs["/rel/disk"]
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("replayed sequences not increasing: %v", seqs)
		}
	}
}

// TestReliableCloseWithoutDiskReportsLoss: a drain that cannot finish
// and has no disk spool to fall back on must say so.
func TestReliableCloseWithoutDiskReportsLoss(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(b.Addr(), Options{
		SpoolBatches: 8,
		RetryMin:     5 * time.Millisecond,
		DrainTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Publish("/rel/lost", []sensor.Reading{{Value: 1, Time: int64(i)}}); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := c.Close(); !errors.Is(err, ErrSpoolNotDrained) {
		t.Fatalf("close error = %v, want ErrSpoolNotDrained", err)
	}
}

// TestReliableBackpressure: Publish blocks at the in-memory high-water
// mark (no disk spool) instead of growing without bound, and unblocks
// when acks free space.
func TestReliableBackpressure(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 2, RetryMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := c.Publish("/rel/bp", []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher wedged under backpressure")
	}
}

// TestAckErrorTypes pins the typed handshake errors: a broker that
// never answers yields ErrAckTimeout, one that answers with the wrong
// frame type yields ErrUnexpectedAck.
func TestAckErrorTypes(t *testing.T) {
	// Silent peer: accepts and never writes.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	// Both typed errors hold for both retention policies: the handshake
	// is the same code.
	for _, spool := range []int{0, 4} {
		if _, err := DialOptions(silent.Addr().String(), Options{AckTimeout: 50 * time.Millisecond, SpoolBatches: spool}); !errors.Is(err, ErrAckTimeout) {
			t.Fatalf("silent broker (SpoolBatches %d): err = %v, want ErrAckTimeout", spool, err)
		}
	}

	// Confused peer: answers CONNECT with a PINGRESP.
	confused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer confused.Close()
	go func() {
		for {
			conn, err := confused.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var buf []byte
				if _, _, err := readFrameReuse(conn, &buf); err != nil {
					return
				}
				_ = writeFrame(conn, framePingResp, nil)
				time.Sleep(time.Second)
			}(conn)
		}
	}()
	for _, spool := range []int{0, 4} {
		if _, err := DialOptions(confused.Addr().String(), Options{AckTimeout: time.Second, SpoolBatches: spool}); !errors.Is(err, ErrUnexpectedAck) {
			t.Fatalf("confused broker (SpoolBatches %d): err = %v, want ErrUnexpectedAck", spool, err)
		}
	}
}

// TestReliableCloseDuringRedial pins the shutdown race where Close runs
// its connection teardown while the sender is still inside a redial:
// the freshly-dialed connection must be abandoned, not registered, or
// its receiver goroutine outlives Close and the drain wedges forever.
// A hand-rolled broker makes the window deterministic: it stalls the
// redial's CONNACK until Close has already torn down (nil) r.conn.
func TestReliableCloseDuringRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	handshook := make(chan struct{})
	release := make(chan struct{})
	go func() {
		// First session: full handshake, ack the one publish, then die.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if typ, _, err := readFrame(conn); err != nil || typ != frameConnect {
			t.Errorf("session 1: want CONNECT, got type %d err %v", typ, err)
			return
		}
		_ = writeFrame(conn, frameConnAck, nil)
		typ, payload, err := readFrame(conn)
		if err != nil || typ != framePublishV2 {
			t.Errorf("session 1: want PUBLISHv2, got type %d err %v", typ, err)
			return
		}
		epoch, seq, _, err := decodePublishV2Prefix(payload)
		if err != nil {
			t.Errorf("session 1: decoding publish: %v", err)
			return
		}
		_ = writeFrame(conn, framePubAck, encodePubAck(nil, epoch, seq))
		time.Sleep(20 * time.Millisecond) // let the ack land and drain the spool
		conn.Close()

		// Second session (the redial): swallow CONNECT, then hold the
		// CONNACK until the test says Close's teardown has passed.
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		if typ, _, err := readFrame(conn2); err != nil || typ != frameConnect {
			t.Errorf("session 2: want CONNECT, got type %d err %v", typ, err)
			return
		}
		close(handshook)
		<-release
		_ = writeFrame(conn2, frameConnAck, nil)
		// Leave conn2 open: only the client may close it now.
	}()

	c, err := DialOptions(ln.Addr().String(), Options{
		SpoolBatches: 8,
		RetryMin:     time.Millisecond,
		RetryMax:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/rel/redial", []sensor.Reading{{Value: 1, Time: 1}}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	<-handshook // the sender is now parked inside dialOnce's handshake
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	// Close drains instantly (the spool is empty) and tears down a nil
	// r.conn; give it time to get there before the dial completes.
	time.Sleep(50 * time.Millisecond)
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung: redial registered its connection after teardown (orphaned receiver)")
	}
}

// TestDiskSpoolScanSurvivesUnboundedRecords: Close's persistRemainder
// writes via rewrite, deliberately ignoring SpoolMaxBytes, so the next
// open's scan must not mistake an over-cap record for a torn tail —
// that would silently discard it and every valid record after it on
// restart replay.
func TestDiskSpoolScanSurvivesUnboundedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pusher.spool")
	d, err := openDiskSpool(path, 64) // cap far below the record written below
	if err != nil {
		t.Fatal(err)
	}
	// Also longer than the scan's 64 KiB read buffer, so the scan passes
	// over it in several reads.
	big := EncodePublishV2(Message{
		Topic: "/spool/big", Readings: make([]sensor.Reading, 8192), Epoch: 7, Seq: 1,
	})
	if int64(len(big)) <= max(d.max, 64<<10) {
		t.Fatalf("test needs a record above the %d-byte cap and the read buffer, got %d bytes", d.max, len(big))
	}
	if err := d.append(spoolRecord(nil, big)); err == nil {
		t.Fatal("capped append above SpoolMaxBytes must fail")
	}
	small := EncodePublishV2(Message{
		Topic: "/spool/small", Readings: []sensor.Reading{{Value: 1, Time: 1}}, Epoch: 7, Seq: 2,
	})
	if err := d.rewrite([][]byte{big, small}); err != nil {
		t.Fatal(err)
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2, err := openDiskSpool(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	if d2.pending != 2 {
		t.Fatalf("scan found %d records, want 2 (over-cap record treated as torn tail)", d2.pending)
	}
	var frame []byte
	for want := uint64(1); want <= 2; want++ {
		var seq uint64
		var lost int
		if frame, _, seq, lost = d2.load(frame); lost != 0 {
			t.Fatalf("record %d lost", want)
		}
		if seq != want {
			t.Fatalf("loaded seq %d, want %d: records out of order or missing", seq, want)
		}
	}
}

// TestRefillKeepsRecordsAfterCorruption: a spool record that turns out
// corrupt after the open scan costs that record alone — its header
// still locates the next one — and Abandoned counts it. The intact
// records on both sides of it are delivered in order, and so is a batch
// published behind them while the overflow file still held them.
func TestRefillKeepsRecordsAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pusher.spool")
	d, err := openDiskSpool(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const n, bad = 20, 10
	var badOff int64
	for i := 0; i < n; i++ {
		if i == bad {
			badOff = d.size
		}
		p := EncodePublishV2(Message{
			Topic: "/rel/refill", Readings: []sensor.Reading{{Value: float64(i), Time: int64(i)}}, Epoch: 7, Seq: uint64(i + 1),
		})
		if err := d.append(spoolRecord(nil, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := newRecorder()
	b.SubscribeLocal(each(rec.handle))
	// DialOptions scans the spool before it dials. The client dials this
	// listener, which corrupts the spool's record bad once the dial
	// arrives and only then lets the connection through to the broker.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if err := flipByte(path, badOff+16); err != nil {
			t.Error(err)
			return
		}
		up, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		go func() {
			_, _ = io.Copy(up, conn)
			up.Close()
		}()
		_, _ = io.Copy(conn, up)
	}()
	c, err := DialOptions(ln.Addr().String(), Options{SpoolBatches: 64, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The record is corrupt by now: the handshake went through the
	// listener. This batch goes to the overflow file's tail unless the
	// sender has already refilled past every record.
	if err := c.Publish("/rel/refill", []sensor.Reading{{Value: n, Time: n}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := c.Stats(); st.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1: the corrupt record alone", st.Abandoned)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var want []float64
	for i := 0; i <= n; i++ {
		if i != bad {
			want = append(want, float64(i))
		}
	}
	if got := rec.values["/rel/refill"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v: every record but the corrupt one, then the later publish", got, want)
	}
}

// TestOpenScanSkipsDamagedRecord: a spool record damaged while no
// client ran costs that record alone. The open scan walks headers only,
// so it keeps the record and every one after it; the refill finds its
// CRC wrong, skips it and counts it in Abandoned, and records 0–9 and
// 11–19 are delivered in order.
func TestOpenScanSkipsDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pusher.spool")
	d, err := openDiskSpool(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const n, bad = 20, 10
	var badOff int64
	for i := 0; i < n; i++ {
		if i == bad {
			badOff = d.size
		}
		p := EncodePublishV2(Message{
			Topic: "/rel/scan", Readings: []sensor.Reading{{Value: float64(i), Time: int64(i)}}, Epoch: 7, Seq: uint64(i + 1),
		})
		if err := d.append(spoolRecord(nil, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if err := flipByte(path, badOff+16); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := newRecorder()
	b.SubscribeLocal(each(rec.handle))
	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 64, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := c.Stats(); st.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1: the damaged record alone", st.Abandoned)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var want []float64
	for i := 0; i < n; i++ {
		if i != bad {
			want = append(want, float64(i))
		}
	}
	if got := rec.values["/rel/scan"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want every record but the damaged one", got)
	}
}

// TestOldSpoolFormatRefused: testdata/spool-spl1.golden is a spool file
// of three records in the format before the 8-byte frame, whose records
// began with the magic "SPL1". Read as frames it locates nothing, so
// the scan would truncate it as a torn tail; DialOptions refuses it
// instead, naming the file and the format, and leaves its bytes alone.
func TestOldSpoolFormatRefused(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spool-spl1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pusher.spool")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 4, SpoolDir: dir})
	if err == nil {
		c.Close()
		t.Fatal("DialOptions accepted a spool file in the old SPL1 format")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "SPL1") {
		t.Fatalf("error %q does not name the file and the old format", err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, golden) {
		t.Fatalf("the refused file changed: %d of %d bytes kept (%v)", len(kept), len(golden), err)
	}
}

// TestCloseWakesOnAck: Close waits for the queue to drain on the
// queue's condition variable, so a QoS 1 Close whose last batch the
// broker acks at once returns as soon as the ack lands, not at the next
// tick of a poll. Of 20 such closes, each with one batch in flight, the
// median takes under 1 ms.
func TestCloseWakesOnAck(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var took []time.Duration
	for i := 0; i < 20; i++ {
		c, err := DialOptions(b.Addr(), Options{SpoolBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Publish("/rel/close", []sensor.Reading{{Value: 1, Time: int64(i)}}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		took = append(took, time.Since(start))
		if st := c.Stats(); st.Acked != 1 {
			t.Fatalf("close %d returned with %d of 1 batches acked", i, st.Acked)
		}
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med >= time.Millisecond {
		t.Fatalf("median Close took %v, want under 1ms (all: %v)", med, took)
	}
}

// flipByte inverts the byte at off in the file at path.
func flipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b[:], off)
	return err
}

// TestPublishNoReorderAroundFullDisk: concurrent publishers racing a
// repeatedly-full overflow file must never let a batch enter the memory
// queue ahead of a lower-sequence disk-resident batch. Small batches
// fit the tiny disk cap, large ones never do (their publishers take the
// blocked path); under the old two-stage wait a blocked publisher could
// enqueue to memory after a smaller batch landed on disk, delivering
// sequences out of order — which the broker's epoch watermark would
// drop despite acking them.
func TestPublishNoReorderAroundFullDisk(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := newRecorder()
	b.SubscribeLocal(each(rec.handle))

	c, err := DialOptions(b.Addr(), Options{
		SpoolBatches:  1,
		SpoolDir:      t.TempDir(),
		SpoolMaxBytes: 200,
		RetryMin:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]sensor.Reading, 64) // encodes past SpoolMaxBytes: never fits on disk
	for i := range big {
		big[i] = sensor.Reading{Value: 1, Time: int64(i)}
	}
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rs := []sensor.Reading{{Value: float64(i), Time: int64(i)}}
				if w == 1 {
					rs = big
				}
				if err := c.Publish("/rel/order", rs); err != nil {
					t.Errorf("worker %d publish %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("close did not drain: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	seqs := rec.seqs["/rel/order"]
	if len(seqs) != 2*perWorker {
		t.Fatalf("delivered %d batches, want %d", len(seqs), 2*perWorker)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence inversion at delivery %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}
