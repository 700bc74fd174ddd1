package transport

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Tests for the broker's dedup watermarks, through real connections and
// a recording handler (burstLog): which versioned batches reach the
// local handlers, and which are dropped as redeliveries.

// id is one publish's delivery identity.
type id struct{ epoch, seq uint64 }

// delivered flattens every burst the handler was handed into the
// identities it saw, in order.
func (l *burstLog) delivered() []id {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []id
	for _, b := range l.bursts {
		for _, m := range b {
			out = append(out, id{m.Epoch, m.Seq})
		}
	}
	return out
}

// deliverAll writes the frames with a PINGREQ behind them and returns
// once the PINGRESP arrives: the broker delivers (or drops) every burst
// ahead of a control frame before it answers it. The PubAcks on the way
// are read and skipped.
func deliverAll(t *testing.T, conn net.Conn, frames ...[]byte) {
	t.Helper()
	var wire bytes.Buffer
	for _, f := range frames {
		wire.Write(f)
	}
	_ = writeFrame(&wire, framePingReq, nil)
	go conn.Write(wire.Bytes()) // the acks come back while a long script is still being written
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, _, err := readFrame(conn)
		if err != nil {
			t.Fatalf("waiting for PINGRESP: %v", err)
		}
		if typ == framePingResp {
			return
		}
	}
}

// frames is one framed publish per identity, all on topic.
func frames(topic sensor.Topic, ids ...id) [][]byte {
	out := make([][]byte, len(ids))
	for i, p := range ids {
		out[i] = topicFrame(topic, p.epoch, p.seq)
	}
	return out
}

// dedupBroker starts a broker with a recording handler.
func dedupBroker(t *testing.T, reg ...*telemetry.Registry) (*Broker, *burstLog) {
	t.Helper()
	b, err := NewBroker("127.0.0.1:0", reg...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	log := new(burstLog)
	b.SubscribeLocal(log.handle)
	return b, log
}

// TestDedupAdmit: unversioned batches always pass; an epoch's fresh
// sequences are admitted and its replays are not, also inside a burst
// that mixes both; gaps are legal; one epoch's mark does not block
// another. The mark is per epoch, not per topic: a client numbers all
// its batches from one counter in queue order, and TestClientModel fails
// on any connection where an epoch's sequences do not strictly increase.
func TestDedupAdmit(t *testing.T) {
	b, log := dedupBroker(t)
	conn := rawPeer(t, b)
	for _, step := range []struct {
		name       string
		send, want []id
	}{
		{"unversioned", []id{{0, 0}, {0, 0}, {0, 0}}, []id{{0, 0}, {0, 0}, {0, 0}}},
		{"fresh", []id{{7, 1}, {7, 2}}, []id{{7, 1}, {7, 2}}},
		{"replayed", []id{{7, 2}, {7, 1}}, nil},
		{"after a gap", []id{{7, 5}}, []id{{7, 5}}},
		{"a replayed prefix, then fresh", []id{{7, 4}, {7, 5}, {7, 6}}, []id{{7, 6}}},
		{"another epoch", []id{{8, 1}}, []id{{8, 1}}},
		{"back to the first", []id{{7, 6}, {7, 7}}, []id{{7, 7}}},
	} {
		before := len(log.delivered())
		fs := make([][]byte, len(step.send))
		for i, p := range step.send {
			fs[i] = publishFrame(p.epoch, p.seq) // epoch 0: a v1 frame
		}
		deliverAll(t, conn, fs...)
		if got := log.delivered()[before:]; !slices.Equal(got, step.want) {
			t.Fatalf("%s: sent %v, the handler saw %v, want %v", step.name, step.send, got, step.want)
		}
	}
}

// TestDedupEviction: past maxDedupEpochs closed epochs the least
// recently active one leaves the table, and its replay is admitted again
// (a duplicate, not a loss: the documented failure direction); a
// recently active epoch keeps its mark, and so does the one the
// connection holds.
func TestDedupEviction(t *testing.T) {
	b, log := dedupBroker(t)
	conn := rawPeer(t, b)
	const epochs = maxDedupEpochs + 10
	ids := make([]id, epochs)
	for i := range ids {
		ids[i] = id{uint64(i + 1), 1}
	}
	deliverAll(t, conn, frames("/dedup/t", ids...)...)
	if got := b.marks.size(); got != maxDedupEpochs+1 {
		t.Fatalf("tracked %d epochs, want the cap %d closed plus the one held", got, maxDedupEpochs)
	}
	deliverAll(t, conn, frames("/dedup/t", id{1, 1}, id{epochs, 1})...)
	if got := log.delivered()[epochs:]; !slices.Equal(got, []id{{1, 1}}) {
		t.Fatalf("replays of the oldest and the newest epoch: the handler saw %v, want only the oldest's", got)
	}
}

// TestDedupManyTopics: one epoch's batches over 100 interleaved topics
// share one mark; a replay of all of them is dropped whole.
func TestDedupManyTopics(t *testing.T) {
	b, log := dedupBroker(t)
	conn := rawPeer(t, b)
	var script [][]byte
	for seq := uint64(1); seq <= 300; seq++ {
		script = append(script, topicFrame(sensor.Topic(fmt.Sprintf("/node%d/power", seq%100)), 42, seq))
	}
	deliverAll(t, conn, script...)
	deliverAll(t, conn, script...)
	perTopic := map[sensor.Topic]int{}
	log.mu.Lock()
	for _, bu := range log.bursts {
		for _, m := range bu {
			perTopic[m.Topic]++
		}
	}
	log.mu.Unlock()
	if len(perTopic) != 100 {
		t.Fatalf("%d topics delivered, want 100", len(perTopic))
	}
	for topic, n := range perTopic {
		if n != 3 {
			t.Fatalf("%s delivered %d times, want 3", topic, n)
		}
	}
}

// TestDedupSharedAcrossConnections: two connections of one epoch — a
// client's old and new connection — are judged by the same mark, so what
// one redelivers for the other is dropped.
func TestDedupSharedAcrossConnections(t *testing.T) {
	b, log := dedupBroker(t)
	first, second := rawPeer(t, b), rawPeer(t, b)
	const topic = "/dedup/shared"
	deliverAll(t, first, frames(topic, id{21, 1})...)
	deliverAll(t, second, frames(topic, id{22, 1})...)
	deliverAll(t, first, frames(topic, id{21, 2})...)
	deliverAll(t, second, frames(topic, id{21, 2})...) // the other connection's batch, redelivered
	deliverAll(t, second, frames(topic, id{21, 3})...)
	deliverAll(t, first, frames(topic, id{21, 3})...)
	if got, want := log.delivered(), []id{{21, 1}, {22, 1}, {21, 2}, {21, 3}}; !slices.Equal(got, want) {
		t.Fatalf("the handler saw %v, want %v", got, want)
	}
}

// TestHandleSurvivesEpochEviction: a connection idles while more than
// maxDedupEpochs other incarnations come and go, and the churn evicts
// closed epochs. The idle connection's epoch is not among them, because
// a mark a connection holds never leaves the table, so what it
// redelivers is still dropped.
func TestHandleSurvivesEpochEviction(t *testing.T) {
	b, log := dedupBroker(t)
	idle, busy := rawPeer(t, b), rawPeer(t, b)
	deliverAll(t, idle, frames("/h/idle", id{7, 1}, id{7, 2})...)
	churn := make([]id, maxDedupEpochs+10)
	for i := range churn {
		churn[i] = id{uint64(1000 + i), 1}
	}
	deliverAll(t, busy, frames("/h/busy", churn...)...)
	b.marks.mu.Lock()
	_, tracked := b.marks.epochs[7]
	_, first := b.marks.epochs[1000]
	b.marks.mu.Unlock()
	if !tracked || first || b.marks.size() != maxDedupEpochs+2 {
		t.Fatalf("epoch 7 tracked %v, epoch 1000 tracked %v, %d epochs: want the two held plus %d closed",
			tracked, first, b.marks.size(), maxDedupEpochs)
	}
	deliverAll(t, idle, frames("/h/idle", id{7, 1}, id{7, 2}, id{7, 3})...)
	var seven []id
	for _, p := range log.delivered() {
		if p.epoch == 7 {
			seven = append(seven, p)
		}
	}
	if want := []id{{7, 1}, {7, 2}, {7, 3}}; !slices.Equal(seven, want) {
		t.Fatalf("epoch 7 delivered %v, want %v: seq 1 and 2 were redeliveries", seven, want)
	}
}

// TestHandleReResolvesOnNewEpoch: one connection, two client epochs. The
// mark the connection holds is for one epoch at a time: a batch of
// another epoch is judged by that epoch's mark, not the held one, and
// going back finds the first epoch's mark where it was.
func TestHandleReResolvesOnNewEpoch(t *testing.T) {
	b, log := dedupBroker(t)
	conn := rawPeer(t, b)
	for i, step := range []struct {
		id
		delivered int
	}{
		{id{11, 5}, 1},
		{id{12, 1}, 2}, // below epoch 11's mark, new for epoch 12
		{id{12, 1}, 2}, // duplicate
		{id{11, 5}, 2}, // duplicate: epoch 11's mark was kept
		{id{11, 6}, 3},
		{id{12, 2}, 4},
	} {
		deliverAll(t, conn, frames("/h/t", step.id)...)
		if n := len(log.delivered()); n != step.delivered {
			t.Fatalf("step %d, %v: %d batches delivered, want %d", i, step.id, n, step.delivered)
		}
	}
}

// TestDedupDropsRealClientRedelivery: a real spooling client over a real
// broker, one epoch's batches interleaved over three topics. The handler
// kills its own connection three times right after it recorded a burst,
// so that burst's ack never leaves and the client redelivers batches the
// handler has already seen. Each batch must still reach the handler
// exactly once, and the broker must have counted the duplicates it
// dropped.
func TestDedupDropsRealClientRedelivery(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := NewBroker("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	topics := []sensor.Topic{"/dedup/a", "/dedup/b", "/dedup/c"}
	const batches, kills = 150, 3
	var (
		mu     sync.Mutex // two connections' serve loops may overlap
		seen   = map[uint64]int{}
		epochs = map[uint64]bool{}
		killed int
	)
	b.SubscribeLocal(func(ms []Message) {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range ms {
			seen[m.Seq]++
			epochs[m.Epoch] = true
			if want := topics[(m.Seq-1)%uint64(len(topics))]; m.Topic != want {
				t.Errorf("seq %d on %s, published on %s", m.Seq, m.Topic, want)
			}
		}
		if killed < kills && len(seen) >= (killed+1)*batches/(kills+1) {
			killed++
			b.KillConnections(-1) // the ack of the burst just recorded never leaves
		}
	})
	c, err := DialOptions(b.Addr(), Options{SpoolBatches: 32, RetryMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if err := c.Publish(topics[i%len(topics)], []sensor.Reading{{Value: float64(i), Time: int64(i)}}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	b.Close() // waits for every serve loop, the killed ones' included
	mu.Lock()
	defer mu.Unlock()
	if killed != kills || len(epochs) != 1 {
		t.Fatalf("%d kills over %d epochs, want %d over 1", killed, len(epochs), kills)
	}
	for seq := uint64(1); seq <= batches; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d reached the handler %d times, want exactly once", seq, seen[seq])
		}
	}
	if len(seen) != batches {
		t.Fatalf("%d sequences delivered, want %d", len(seen), batches)
	}
	dups, _ := reg.Value("dcdb_ingest_dup_batches_total")
	if st := c.Stats(); dups < 1 || st.Redeliveries < 1 {
		t.Fatalf("%v duplicates dropped after %d redeliveries, want at least one of each", dups, st.Redeliveries)
	}
	t.Logf("%d redeliveries, %v duplicates dropped", c.Stats().Redeliveries, dups)
}
