// Package transport implements the MQTT-flavoured push transport between
// DCDB Pushers and Collect Agents: Pushers publish reading batches over
// TCP, and the agent's Broker drops redelivered duplicates from each
// burst of them, hands the rest to in-process handlers and acknowledges
// it.
//
// The production DCDB uses full MQTT brokers; every data path in this
// codebase needs exactly the subset implemented here — CONNECT and PUBLISH
// of reading batches to slash-separated topics — over length-prefixed
// binary frames; the Broker also answers PING, for peers that send it.
// Nothing subscribes over the network:
// dashboards, operators and queries read the agent's caches and store,
// which its local handler (Broker.SubscribeLocal, handed every message)
// feeds.
//
// There is one Client: Publish queues, a sender goroutine — a
// connection's only writer — writes the queue in vectored bursts and
// redials after connection loss. MQTT's
// QoS level is its retention policy, chosen by Options.SpoolBatches —
// QoS 0 forgets a batch once written (at most once), QoS 1 keeps it
// until the Broker's cumulative PubAck (at least once, with optional
// disk overflow). docs/FORMATS.md §1 and §4 specify the bytes.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Frame types. framePublishV2 and framePubAck carry at-least-once
// delivery: a v2 PUBLISH prefixes the v1 payload with a (client-epoch,
// sequence) pair, and the broker answers with PubAcks echoing such a
// pair. A QoS 0 client speaks framePublish and receives no acks. Types 4
// and 5 were SUBSCRIBE and SUBACK: they are reserved, never reused, and
// a broker closes a connection that sends type 4. Past the CONNACK, both
// sides ignore any other frame type they do not know.
const (
	frameConnect    = 1
	frameConnAck    = 2
	framePublish    = 3
	frameSubscribe  = 4 // reserved; SUBACK (5) likewise
	framePingReq    = 6
	framePingResp   = 7
	frameDisconnect = 8
	framePublishV2  = 9
	framePubAck     = 10
)

// maxFrameSize bounds a single frame payload; larger frames indicate a
// protocol violation or corruption.
const maxFrameSize = 16 << 20

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrBadFrame reports a structurally invalid frame payload.
var ErrBadFrame = errors.New("transport: malformed frame")

// writeFrame emits one frame: type byte, 4-byte big-endian length, payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrameSize {
		return ErrFrameTooLarge
	}
	hdr := [frameHeader]byte{typ}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// frameHeader is the size of a frame's type byte and length word.
const frameHeader = 5

// frameReadStep bounds what a frame body may make a reader allocate
// ahead of the bytes that have arrived, and is the largest buffer
// readFrameReuse keeps from one call to the next.
const frameReadStep = 64 << 10

// readFrame reads one frame into a fresh payload slice the caller owns.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var payloadBuf []byte
	return readFrameReuse(r, &payloadBuf)
}

// readFrameReuse reads one frame into *buf, growing it as needed and
// reusing its capacity across calls. The returned payload aliases *buf
// and is only valid until the next call. Memory follows the input, not
// the header: a body longer than frameReadStep is read in steps that at
// most double what has already arrived, and a buffer grown past
// frameReadStep is given up on the next call instead of being kept for
// the connection's life — so a 5-byte header declaring 16 MiB buys
// frameReadStep bytes, not 16 MiB.
func readFrameReuse(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > maxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(*buf) > frameReadStep && n <= frameReadStep {
		*buf = nil
	}
	b := (*buf)[:0]
	for len(b) < n {
		step := min(n-len(b), max(len(b), frameReadStep))
		b = slices.Grow(b, step)
		m, rerr := io.ReadFull(r, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		if rerr != nil {
			*buf = b
			return 0, nil, rerr
		}
	}
	*buf = b
	return hdr[0], b, nil
}

// frameBuffered reports whether the next frame sits whole in br's
// buffer, so that awaitFrame returns it without touching the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeader {
		return false
	}
	hdr, _ := br.Peek(frameHeader)
	return uint64(binary.BigEndian.Uint32(hdr[1:])) <= uint64(br.Buffered()-frameHeader)
}

// awaitFrame blocks until the next frame has arrived whole. A frame that
// fits br's buffer is parsed in place: payload aliases the buffer, valid
// until the next read that has to wait, and the frame is not consumed —
// the caller Discards held bytes when done with it. A larger frame is
// read out into a buffer of its own (readFrame) and held is 0.
func awaitFrame(br *bufio.Reader) (typ byte, payload []byte, held int, err error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrameSize {
		return 0, nil, 0, ErrFrameTooLarge
	}
	held = frameHeader + int(n)
	if held > br.Size() {
		typ, payload, err = readFrame(br)
		return typ, payload, 0, err
	}
	frame, err := br.Peek(held)
	if err != nil {
		return 0, nil, 0, err
	}
	return frame[0], frame[frameHeader:], held, nil
}

// Message is one published batch of readings for a topic. Epoch and Seq
// are the at-least-once delivery identity carried by v2 PUBLISH frames:
// Epoch identifies one client incarnation and Seq increases by one per
// published batch within it. Both are zero for messages that arrived as
// unversioned (v1) publishes, which receive no ack and no dedup. Ref is
// the delivering connection's handle for the topic (see TopicRef): set on
// messages a broker delivers to its local handlers, nil when the topic
// was not interned and everywhere else.
type Message struct {
	Topic    sensor.Topic
	Readings []sensor.Reading
	Epoch    uint64
	Seq      uint64
	Ref      *TopicRef
}

// Bounds of a connection's intern table: how many topics it pins and how
// long a pinned topic may be. A publisher beyond either still has every
// publish delivered, with a nil Message.Ref and one string allocation
// per message.
const (
	maxInternTopics   = 4096
	maxInternTopicLen = 256
)

// TopicRef is one connection's handle for a topic it publishes: the
// broker resolves a PUBLISH's topic bytes to it with the one string
// lookup the message costs in this package, and every later message of
// that topic on that connection carries the same handle. Local handlers
// hang what they resolved for the topic off it (Attach) and find it again
// (State) without a lookup of their own.
//
// A handle belongs to its connection's goroutine — the one that decodes
// the publishes and runs the local handlers — so it needs no lock, must
// not be handed to another goroutine, and dies with the connection. What
// is attached must therefore be state that outlives any connection.
type TopicRef struct {
	// Topic is the interned topic string.
	Topic sensor.Topic
	// attached holds one cell per handler that attached something: a
	// broker has one or two local handlers, so a scan beats a map.
	attached []refState
}

type refState struct{ owner, state any }

// State returns what the handler identified by owner attached to the
// handle, nil if nothing yet.
func (r *TopicRef) State(owner any) any {
	for i := range r.attached {
		if r.attached[i].owner == owner {
			return r.attached[i].state
		}
	}
	return nil
}

// Attach hangs state off the handle under owner, a comparable value that
// identifies the attaching handler (a pointer to its own state, say), so
// that handlers sharing a broker cannot touch each other's cells. A
// second Attach under one owner replaces the first.
func (r *TopicRef) Attach(owner, state any) {
	for i := range r.attached {
		if r.attached[i].owner == owner {
			r.attached[i].state = state
			return
		}
	}
	r.attached = append(r.attached, refState{owner, state})
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// publishSize is the length of m's v1 PUBLISH payload.
func publishSize(m Message) int {
	return uvarintLen(uint64(len(m.Topic))) + len(m.Topic) +
		uvarintLen(uint64(len(m.Readings))) + 16*len(m.Readings)
}

// appendPublish appends m's v1 PUBLISH payload to buf: uvarint topic
// length, topic bytes, uvarint reading count, then (value, time) pairs as
// fixed 16-byte records.
func appendPublish(buf []byte, m Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Topic)))
	buf = append(buf, m.Topic...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Readings)))
	for _, r := range m.Readings {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Value))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Time))
	}
	return buf
}

// EncodePublish serialises a message into a PUBLISH payload (see
// appendPublish for the layout).
func EncodePublish(m Message) []byte {
	return appendPublish(make([]byte, 0, publishSize(m)), m)
}

// DecodePublish parses a PUBLISH payload into freshly-allocated storage
// the caller owns.
func DecodePublish(payload []byte) (Message, error) {
	return decodePublishInto(payload, nil, nil)
}

// decodePublishInto parses a PUBLISH payload, appending the readings to
// rs (reusing its capacity) and resolving the topic through the intern
// table when one is given — so a connection's steady-state decode
// allocates nothing once its topics and batch size have been seen. The
// intern table is bounded: a publisher cycling through unbounded topics
// degrades to one string allocation per message and a nil Ref, not
// unbounded memory.
func decodePublishInto(payload []byte, rs []sensor.Reading, intern map[string]*TopicRef) (Message, error) {
	var m Message
	tl, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload)-n) < tl {
		return m, fmt.Errorf("%w: topic length", ErrBadFrame)
	}
	payload = payload[n:]
	rawTopic := payload[:tl]
	payload = payload[tl:]
	cnt, n := binary.Uvarint(payload)
	if n <= 0 {
		return m, fmt.Errorf("%w: reading count", ErrBadFrame)
	}
	payload = payload[n:]
	// Divide instead of multiplying: cnt*16 can wrap uint64, letting a
	// forged count pass the length check and crash the decode loop.
	if uint64(len(payload))%16 != 0 || uint64(len(payload))/16 != cnt {
		return m, fmt.Errorf("%w: reading records", ErrBadFrame)
	}
	// Topic resolution happens only after the frame validated whole, and
	// only short topics are pinned in the table — a hostile publisher
	// can neither poison the intern table with malformed frames nor grow
	// it by megabytes per entry.
	if ref, ok := intern[string(rawTopic)]; ok {
		m.Topic, m.Ref = ref.Topic, ref
	} else {
		m.Topic = sensor.Topic(rawTopic)
		if intern != nil && len(rawTopic) <= maxInternTopicLen && len(intern) < maxInternTopics {
			m.Ref = &TopicRef{Topic: m.Topic}
			intern[string(m.Topic)] = m.Ref
		}
	}
	for i := uint64(0); i < cnt; i++ {
		rs = append(rs, sensor.Reading{
			Value: math.Float64frombits(binary.BigEndian.Uint64(payload[0:8])),
			Time:  int64(binary.BigEndian.Uint64(payload[8:16])),
		})
		payload = payload[16:]
	}
	m.Readings = rs
	return m, nil
}

// EncodePublishV2 serialises a message into a v2 PUBLISH payload: the
// uvarint (epoch, seq) delivery identity, then the v1 payload verbatim.
// The layout lets the broker decode the body with the v1 decoder by
// re-slicing past the prefix.
func EncodePublishV2(m Message) []byte {
	return appendPublishV2(make([]byte, 0, publishV2Size(m)), m)
}

// publishV2Size is the length of m's v2 PUBLISH payload.
func publishV2Size(m Message) int {
	return uvarintLen(m.Epoch) + uvarintLen(m.Seq) + publishSize(m)
}

// appendPublishV2 appends m's v2 PUBLISH payload to buf: the client
// encodes into buffers it keeps from batch to batch.
func appendPublishV2(buf []byte, m Message) []byte {
	buf = binary.AppendUvarint(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, m.Seq)
	return appendPublish(buf, m)
}

// decodePublishV2Prefix parses the (epoch, seq) prefix of a v2 PUBLISH
// payload and returns the offset where the embedded v1 payload starts.
func decodePublishV2Prefix(payload []byte) (epoch, seq uint64, off int, err error) {
	var n int
	epoch, n = binary.Uvarint(payload)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: publish epoch", ErrBadFrame)
	}
	off = n
	seq, n = binary.Uvarint(payload[off:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: publish seq", ErrBadFrame)
	}
	return epoch, seq, off + n, nil
}

// encodePubAck serialises a PubAck payload: the acknowledged batch's
// uvarint (epoch, seq) pair.
func encodePubAck(buf []byte, epoch, seq uint64) []byte {
	var tmp [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], epoch)
	n += binary.PutUvarint(tmp[n:], seq)
	return append(buf[:0], tmp[:n]...)
}

// decodePubAck parses a PubAck payload.
func decodePubAck(payload []byte) (epoch, seq uint64, err error) {
	epoch, seq, _, err = decodePublishV2Prefix(payload)
	return epoch, seq, err
}
