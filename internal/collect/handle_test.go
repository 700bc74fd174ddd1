package collect

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// Tests for what the agent hangs off a connection's topic handle (its
// *core.Series), through a real broker connection: a scripted peer
// writes the frames (docs/FORMATS.md §1: type byte, big-endian length,
// payload), so the test decides each publish's (epoch, seq) and which
// connection carries it. A PubAck is sent after the handler returned —
// or after the broker dropped the burst as a duplicate — so every check
// below follows an ack, no sleep.

const (
	frameConnect   = 1
	framePublishV2 = 9
	framePubAck    = 10
)

type peer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

func (p *peer) readFrame() (byte, []byte) {
	p.t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [5]byte
	if _, err := io.ReadFull(p.br, hdr[:]); err != nil {
		p.t.Fatalf("reading a frame: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[1:]))
	if _, err := io.ReadFull(p.br, payload); err != nil {
		p.t.Fatalf("reading a frame: %v", err)
	}
	return hdr[0], payload
}

func dialPeer(t *testing.T, a *Agent) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &peer{t: t, conn: conn, br: bufio.NewReader(conn)}
	if _, err := conn.Write(appendFrame(nil, frameConnect, nil)); err != nil {
		t.Fatal(err)
	}
	p.readFrame() // CONNACK
	return p
}

// pub is one publish of a script: one reading, its timestamp the seq.
type pub struct {
	epoch, seq uint64
	topic      sensor.Topic
}

// send writes the publishes back to back and returns once the last one
// is acknowledged (acks are cumulative within an epoch, one per burst).
func (p *peer) send(pubs ...pub) {
	p.t.Helper()
	var wire []byte
	for _, pb := range pubs {
		wire = appendFrame(wire, framePublishV2, transport.EncodePublishV2(transport.Message{
			Topic: pb.topic, Epoch: pb.epoch, Seq: pb.seq,
			Readings: []sensor.Reading{{Value: float64(pb.seq), Time: int64(pb.seq)}},
		}))
	}
	go p.conn.Write(wire) // acks come back while a long script is still being written
	last := pubs[len(pubs)-1]
	for {
		typ, payload := p.readFrame()
		if typ != framePubAck {
			p.t.Fatalf("frame %d while waiting for PubAck(%d, %d)", typ, last.epoch, last.seq)
		}
		epoch, n := binary.Uvarint(payload)
		seq, _ := binary.Uvarint(payload[n:])
		if epoch == last.epoch && seq == last.seq {
			return
		}
	}
}

func newHandleAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	cfg.ListenMQTT = "127.0.0.1:0"
	cfg.StoreDir = t.TempDir()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestHandlesOfTwoConnectionsShareSeries: two connections publishing one
// topic resolve it to the same cache and the same result-cache version
// state. The batch one of them redelivers for the other (a client's old
// and new connection carry the same epoch) never reaches the agent.
func TestHandlesOfTwoConnectionsShareSeries(t *testing.T) {
	a := newHandleAgent(t, Config{ResultCacheSize: 64})
	first, second := dialPeer(t, a), dialPeer(t, a)
	const topic = "/h/shared"
	first.send(pub{21, 1, topic})
	second.send(pub{22, 1, topic})
	first.send(pub{21, 2, topic})
	second.send(pub{21, 2, topic}) // the other connection's batch, redelivered
	second.send(pub{21, 3, topic})
	first.send(pub{21, 3, topic})
	c, ok := a.Caches.Get(topic)
	if !ok || c.Len() != 4 || a.DB.Count(topic) != 4 {
		t.Fatalf("cache holds %d readings, store %d; want 4 in both", c.Len(), a.DB.Count(topic))
	}
	if st := a.Results.Begin([]sensor.Topic{topic}); st.VerSum != 4 || st.MinHWM != 3 {
		t.Fatalf("result-cache state %+v, want 4 writes up to t=3", st)
	}
}

// TestPublisherBeyondInternCap: a publisher with more topics than a
// connection interns is stored, deduplicated, acknowledged and counted
// like any other — its redelivered spool is gone before it is routed —
// and its surplus shows in the transport's counter.
func TestPublisherBeyondInternCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newHandleAgent(t, Config{Metrics: reg, StoreDir: t.TempDir()})
	const (
		internCap = 4096 // transport's maxInternTopics
		over      = 64
	)
	script := make([]pub, internCap+over)
	for i := range script {
		script[i] = pub{31, uint64(i + 1), sensor.Topic(fmt.Sprintf("/cap/t%04d", i))}
	}
	p := dialPeer(t, a)
	p.send(script...)
	p.send(script...) // the whole spool again: every batch a duplicate
	for i := range script {
		script[i].seq += uint64(len(script))
	}
	p.send(script...)
	for _, i := range []int{0, internCap - 1, internCap, internCap + over - 1} {
		if n := a.DB.Count(script[i].topic); n != 2 {
			t.Errorf("%s: %d readings stored, want 2", script[i].topic, n)
		}
	}
	n := float64(len(script))
	for name, want := range map[string]float64{
		"dcdb_ingest_batches_total":                 2 * n,
		"dcdb_ingest_readings_total":                2 * n,
		"dcdb_ingest_dup_batches_total":             n,
		"dcdb_ingest_dup_readings_total":            n,
		"dcdb_ingest_dedup_epochs":                  1,
		"dcdb_broker_messages_routed_total":         2 * n,
		"dcdb_transport_uninterned_publishes_total": 3 * over,
	} {
		if v, ok := reg.Value(name); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	if got := a.DB.TotalReadings(); got != 2*len(script) {
		t.Errorf("%d readings in the store, want %d", got, 2*len(script))
	}
}

// TestSecondLocalHandlerLeavesSeriesAlone: the chaos ledger subscribes
// beside the agent. It sees what the agent sees — the broker dropped the
// duplicate before either — and whatever it attaches to the handles the
// agent's series stay the agent's.
func TestSecondLocalHandlerLeavesSeriesAlone(t *testing.T) {
	a := newHandleAgent(t, Config{})
	seen := make(chan int, 16) // one send per burst, far fewer than 16 here
	var ledger struct{ total int }
	a.Broker.SubscribeLocal(func(ms []transport.Message) {
		for _, m := range ms {
			if _, mine := m.Ref.State(a).(*core.Series); !mine {
				t.Errorf("%s: the agent's series is gone from the handle", m.Topic)
			}
			m.Ref.Attach(&ledger, "ledger's")
			ledger.total++
		}
		seen <- ledger.total
	})
	p := dialPeer(t, a)
	const topic = "/h/ledger"
	p.send(pub{41, 1, topic})
	p.send(pub{41, 1, topic})
	p.send(pub{41, 2, topic})
	// Every burst the handlers ran for was acknowledged after its send on
	// seen: they are all buffered there by now.
	total := 0
	for len(seen) > 0 {
		total = <-seen
	}
	if total != 2 {
		t.Fatalf("the ledger saw %d messages, want 2: the duplicate reached it", total)
	}
	if n := a.DB.Count(topic); n != 2 {
		t.Fatalf("%d readings stored, want 2", n)
	}
}

// TestIngestBurstSteadyStateAllocFree: once a connection's topics are
// resolved, a 64-message burst goes through the agent's handler —
// caches, tsdb (WAL and heads, on disk), result-cache marks, counters —
// without allocating. The warm-up burst resolves the handles and carries
// enough readings that a head's array grows at most once more over the
// measured runs, which AllocsPerRun, reporting whole allocations per
// run, rounds away. Under the race detector the pools themselves
// allocate, so only the stored count is checked there.
func TestIngestBurstSteadyStateAllocFree(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir(), ResultCacheSize: 64, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const runs = 200
	ms := make([]transport.Message, 64)
	for i := range ms {
		topic := sensor.Topic(fmt.Sprintf("/alloc/n%02d/power", i))
		ms[i] = transport.Message{Topic: topic, Epoch: 51, Ref: &transport.TopicRef{Topic: topic}}
	}
	seq, now := uint64(0), int64(0)
	burst := func(readings int) {
		for i := range ms {
			seq++
			ms[i].Seq = seq
			ms[i].Readings = ms[i].Readings[:0]
			for j := 0; j < readings; j++ {
				now++
				ms[i].Readings = append(ms[i].Readings, sensor.Reading{Value: 1, Time: now})
			}
		}
		a.ingestBurst(ms)
	}
	burst(8 * runs)
	if n := testing.AllocsPerRun(runs, func() { burst(1) }); n != 0 && !raceEnabled {
		t.Fatalf("a burst of known topics allocates %.0f times", n)
	}
	if got, want := a.DB.TotalReadings(), 64*(8*runs+runs+1); got != want {
		t.Fatalf("%d readings stored, want %d", got, want)
	}
}
