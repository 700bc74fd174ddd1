package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// opKind names what the observer does in one slot.
type opKind int

const (
	opNone  opKind = iota
	opProbe        // publish one reading stamped now, poll REST until visible
	opPanel        // dashboard panel: avg over a rack's last 60 complete seconds
	opTick         // Manager.TickAll
	opRange        // cold raw range over 10 min
	opAgg          // cold avg over 1 h on a 16-topic prefix
	opDown         // cold step=60s downsample over 1 h
	numKinds
)

var kindNames = [numKinds]string{"none", "probe", "panel", "tick", "range", "agg", "downsample"}

const (
	probeTopic   = sensor.Topic("/probe/fresh")
	latencyLimit = 250 * time.Millisecond
	panels       = 16
	panelWindow  = 60 * time.Second
)

// recorded is one answered query kept for the verifier.
type recorded struct {
	kind  opKind
	path  string
	body  []byte
	topic int   // cold: first topic index
	start int64 // cold: window start
}

// observer is the generator's reading side: one goroutine issuing
// probes, queries and ticks, open loop on a fixed slot schedule or, with
// period 0, in a closed loop.
type observer struct {
	s      *stack
	tr     *tracer
	period time.Duration
	limit  time.Duration // an operation slower than this has failed
	pick   func(slot int64) opKind
	rng    *rand.Rand
	cold   *coldSet

	ops       atomic.Int64        // operations completed, recorded or not
	lat       [numKinds][]float64 // ms, recorded slots only
	late      []float64           // ms a slept-for slot woke late
	tickLate  []float64           // ms a tick started after its due time
	attempted int64
	failed    int64
	probes    int64
	keep      []recorded
	eligible  int
	err       error
}

// run executes slots until stop is set; samples count while rec is set.
func (o *observer) run(stop, rec *atomic.Bool) {
	t0 := time.Now()
	for slot := int64(0); !stop.Load(); slot++ {
		due := time.Now()
		var kind opKind
		slept := false
		if o.period > 0 {
			due = t0.Add(time.Duration(slot) * o.period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				slept = true
			}
			kind = o.pick(slot)
		} else {
			kind = o.cold.pick(o.rng)
		}
		// An operation is timed from its slot's due time, so a slot the
		// previous operation overran is charged the wait. When the
		// observer slept until the slot, what it woke late by is the
		// generator's own error (this VM's timers tick at 1 ms): it is
		// reported as generator lateness and not charged to the pipeline.
		on := rec.Load()
		from := due
		if slept {
			from = time.Now()
			if on {
				o.late = append(o.late, ms(from.Sub(due)))
			}
		}
		if on && kind == opTick {
			o.tickLate = append(o.tickLate, ms(from.Sub(due)))
		}
		sp := o.tr.begin(kindNames[kind], 0)
		ok := o.do(kind, from, slot, sp, on)
		o.tr.end(sp)
		if o.err != nil {
			return
		}
		d := time.Since(from)
		o.ops.Add(1)
		if on {
			o.attempted++
			if !ok || d > o.limit {
				o.failed++
			}
			o.lat[kind] = append(o.lat[kind], ms(d))
		}
	}
}

// do performs one operation and reports whether it succeeded.
func (o *observer) do(kind opKind, due time.Time, slot int64, parent int, on bool) bool {
	switch kind {
	case opProbe:
		return o.probe(due, parent)
	case opTick:
		return o.s.agent.Manager.TickAll(due) == nil
	case opPanel:
		// The window ends one second back, as dashboards that hide the
		// incomplete newest bucket ask: every batch stamped inside it has
		// arrived, even one held back a sweep, so the answer is final.
		end := due.Truncate(time.Second).Add(-time.Second).UnixNano()
		path := fmt.Sprintf("/query?sensor=/r%02d/%%23&op=avg&start=%d&end=%d",
			slot%panels, end-int64(panelWindow), end)
		code, body, err := o.s.get(path)
		if err != nil || code != 200 {
			return false
		}
		// Keep 32 answers for the cached ≡ uncached replay.
		if o.eligible++; on && o.eligible%50 == 0 && len(o.keep) < 32 {
			o.keep = append(o.keep, recorded{kind: kind, path: path, body: bytes.Clone(body)})
		}
		return true
	default:
		return o.coldQuery(kind, on)
	}
}

// probe publishes one reading stamped with the slot's start through the
// publisher's connection, behind whatever its spool holds, and polls
// GET /query until that timestamp is served.
func (o *observer) probe(due time.Time, parent int) bool {
	stamp := due.UnixNano()
	o.probes++
	sp := o.tr.begin("publish-enqueue", parent)
	err := o.s.pubs[0].Publish(probeTopic, []sensor.Reading{{Value: float64(o.probes), Time: stamp}})
	o.tr.end(sp)
	if err != nil {
		o.err = err
		return false
	}
	want := []byte(`"Time":` + strconv.FormatInt(stamp, 10))
	// A poll is as long as the freshness it measures, so the answer
	// comes in whole polls; starting the first at a random point of one
	// poll's length makes the median move smoothly with the pipeline.
	for dither := time.Duration(o.rng.Int63n(int64(200 * time.Microsecond))); time.Since(due) < dither; {
	}
	for time.Since(due) < o.limit {
		sp := o.tr.begin("http", parent)
		code, body, err := o.s.get("/query?sensor=" + string(probeTopic))
		o.tr.end(sp)
		if err != nil || code != 200 {
			return false
		}
		if bytes.Contains(body, want) {
			return true
		}
		// Keep a long wait from turning into a busy loop on the server.
		if time.Since(due) > 5*time.Millisecond {
			time.Sleep(time.Millisecond)
		}
	}
	return false
}

// coldSet is the preloaded history cold-scan queries: groups of 16
// topics /cold/gGG/sSS, one reading per second from t0.
type coldSet struct {
	topics   []sensor.Topic
	t0       int64
	readings int64 // per topic
}

const (
	coldGroups   = 32
	coldPerGroup = 16
	coldSpan     = 4 * time.Hour
	coldAge      = 10 * time.Minute // newest cold reading is this old
	rangeSpan    = 10 * time.Minute
	aggSpan      = time.Hour
)

func newColdSet(now time.Time) *coldSet {
	c := &coldSet{readings: int64(coldSpan / time.Second)}
	c.t0 = now.Truncate(time.Second).Add(-coldAge - coldSpan).UnixNano()
	for g := 0; g < coldGroups; g++ {
		for s := 0; s < coldPerGroup; s++ {
			c.topics = append(c.topics, sensor.Topic(fmt.Sprintf("/cold/g%02d/s%02d", g, s)))
		}
	}
	return c
}

// pick draws the query mix: 40 % range, 40 % aggregate, 20 % downsample.
func (c *coldSet) pick(rng *rand.Rand) opKind {
	switch n := rng.Intn(10); {
	case n < 4:
		return opRange
	case n < 8:
		return opAgg
	}
	return opDown
}

// coldQuery issues one cold query at a random topic and 1 s-aligned
// start and checks the answer's count against the closed form.
func (o *observer) coldQuery(kind opKind, on bool) bool {
	c := o.cold
	span, fanout := int64(aggSpan), int64(coldPerGroup)
	if kind == opRange {
		span, fanout = int64(rangeSpan), 1
	}
	sec := int64(time.Second)
	start := c.t0 + o.rng.Int63n(c.readings-span/sec)*sec
	end := start + span
	var path string
	var topic int
	switch kind {
	case opRange:
		topic = o.rng.Intn(len(c.topics))
		path = fmt.Sprintf("/query?sensor=%s&from=%d&to=%d", c.topics[topic], start, end)
	default:
		group := o.rng.Intn(coldGroups)
		topic = group * coldPerGroup
		path = fmt.Sprintf("/query?sensor=/cold/g%02d/%%23&op=avg&start=%d&end=%d", group, start, end)
		if kind == opDown {
			path += "&step=60s"
		}
	}
	code, body, err := o.s.get(path)
	if err != nil || code != 200 {
		return false
	}
	// Range answers lead with the count; aggregations end with the
	// combined one.
	var got int64
	if kind == opRange {
		got = intAfter(body, bytes.Index(body, countKey))
	} else {
		got = intAfter(body, bytes.LastIndex(body, countKey))
	}
	if want := (span/sec + 1) * fanout; got != want {
		o.err = fmt.Errorf("cold %s %s: count %d, want %d", kindNames[kind], path, got, want)
		return false
	}
	if on && kind == opAgg && len(o.keep) < 32 {
		if o.eligible++; o.eligible%50 == 0 {
			o.keep = append(o.keep, recorded{kind: kind, path: path, body: bytes.Clone(body), topic: topic, start: start})
		}
	}
	return true
}

var countKey = []byte(`"count":`)

// intAfter parses the integer following the key found at offset at.
func intAfter(body []byte, at int) int64 {
	if at < 0 {
		return -1
	}
	at += len(countKey)
	end := at
	for end < len(body) && body[end] >= '0' && body[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(string(body[at:end]), 10, 64)
	if err != nil {
		return -1
	}
	return n
}
