package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/transport"
)

// The live sensor tree: /rRR/nNN/{power,temp,instr,cycles}.
const (
	racks        = 64
	nodesPerRack = 16
	batchLen     = 10 // readings per published batch
)

var sensorNames = [...]string{"power", "temp", "instr", "cycles"}

// Generator ids partition the walk's key space: live topics take
// [0, 4096), cold topics follow, ladder topics come last.
const (
	liveID   = 0
	coldID   = 1 << 16
	ladderID = 1 << 17
)

func liveTopics() []sensor.Topic {
	out := make([]sensor.Topic, 0, racks*nodesPerRack*len(sensorNames))
	for r := 0; r < racks; r++ {
		for n := 0; n < nodesPerRack; n++ {
			for _, s := range sensorNames {
				out = append(out, sensor.Topic(fmt.Sprintf("/r%02d/n%02d/%s", r, n, s)))
			}
		}
	}
	return out
}

// walk is the seeded value source: a bounded random walk in tenths, so
// every value is a multiple of 0.1 and reading idx of series id is a
// pure function of (seed, id, idx) the verifier recomputes.
type walk struct{ seed uint64 }

const walkMax = 2000 // values stay in [0.0, 200.0]

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (w walk) hash(id int, idx int64) uint64 {
	return mix64(w.seed ^ mix64(uint64(id)<<32^uint64(idx)))
}

// start is the walk's position before reading 0.
func (w walk) start(id int) int32 { return 500 + int32(w.hash(id, -1)%1000) }

// next advances series id from v to reading idx, reflecting at the
// bounds.
func (w walk) next(v int32, id int, idx int64) int32 {
	v += int32(w.hash(id, idx)%7) - 3
	if v < 0 {
		v = -v
	}
	if v > walkMax {
		v = 2*walkMax - v
	}
	return v
}

// replay calls fn with the first n values of series id.
func (w walk) replay(id int, n int64, fn func(idx int64, v float64)) {
	v := w.start(id)
	for i := int64(0); i < n; i++ {
		v = w.next(v, id, i)
		fn(i, float64(v)/10)
	}
}

// feed is a set of topics one publisher advances batch by batch: reading
// idx of every topic is stamped base+idx*step, except each topic's first
// batch, which set-up publishes before the generator's clock starts and
// stamps from primeBase. With holdback, one batch in 1024 is kept until
// the topic's next batch went out, so it arrives out of order.
type feed struct {
	w         walk
	firstID   int
	topics    []sensor.Topic
	primeBase int64
	base      int64
	step      int64
	holdback  bool

	vals []int32
	idx  []int64
	held [][]sensor.Reading
	// last is the most recently published batch per topic, in arrival
	// order: what a relative cache view over the newest readings sees.
	last [][batchLen]sensor.Reading
	rs   [batchLen]sensor.Reading

	sent atomic.Int64 // readings Publish accepted
	ooo  int64        // batches delivered out of order
}

func newFeed(w walk, firstID int, topics []sensor.Topic, primeBase, step int64, holdback bool) *feed {
	f := &feed{
		w: w, firstID: firstID, topics: topics, primeBase: primeBase, step: step, holdback: holdback,
		vals: make([]int32, len(topics)),
		idx:  make([]int64, len(topics)),
		held: make([][]sensor.Reading, len(topics)),
		last: make([][batchLen]sensor.Reading, len(topics)),
	}
	for i := range topics {
		f.vals[i] = w.start(firstID + i)
	}
	return f
}

// ts is the timestamp of every topic's reading idx.
func (f *feed) ts(idx int64) int64 {
	if idx < batchLen {
		return f.primeBase + idx*f.step
	}
	return f.base + idx*f.step
}

// emit publishes topic i's next batch.
func (f *feed) emit(c *transport.Client, i int) error {
	v, idx := f.vals[i], f.idx[i]
	for j := range f.rs {
		v = f.w.next(v, f.firstID+i, idx)
		f.rs[j] = sensor.Reading{Value: float64(v) / 10, Time: f.ts(idx)}
		idx++
	}
	f.vals[i], f.idx[i] = v, idx
	if f.holdback && f.held[i] == nil && f.w.hash(f.firstID+i, -idx)%1024 == 0 {
		f.held[i] = append([]sensor.Reading(nil), f.rs[:]...)
		return nil
	}
	if err := f.publish(c, i, f.rs[:]); err != nil {
		return err
	}
	if h := f.held[i]; h != nil {
		f.held[i] = nil
		f.ooo++
		return f.publish(c, i, h)
	}
	return nil
}

func (f *feed) publish(c *transport.Client, i int, rs []sensor.Reading) error {
	if err := c.Publish(f.topics[i], rs); err != nil {
		return err
	}
	copy(f.last[i][:], rs)
	f.sent.Add(int64(len(rs)))
	return nil
}

// flushHeld publishes every batch still held back.
func (f *feed) flushHeld(c *transport.Client) error {
	for i, h := range f.held {
		if h == nil {
			continue
		}
		f.held[i] = nil
		f.ooo++
		if err := f.publish(c, i, h); err != nil {
			return err
		}
	}
	return nil
}

// publisher drives one feed through one spooled client.
type publisher struct {
	c    *transport.Client
	f    *feed
	tr   *tracer
	rate float64 // batches/s; 0 publishes in a closed loop
	late []float64
	// ackLat samples, in ms, how long a closed-loop batch took from
	// Publish to the PubAck that covers it; passLat is how long the
	// closed loop took over each pass through its topics.
	ackLat  []float64
	passLat []float64
	err     error
}

// run publishes until stop is set, then releases held batches. Open
// loop: a 1 ms tick publishes whatever the fixed rate makes due, and how
// late every tick began is recorded while rec is set.
func (p *publisher) run(stop, rec *atomic.Bool) {
	defer func() {
		if p.err == nil {
			p.err = p.f.flushHeld(p.c)
		}
	}()
	n := len(p.f.topics)
	// emit publishes the k-th batch; a traced run keeps a span of one
	// Publish call in 256.
	emit := func(k int) error {
		if k%256 != 0 {
			return p.f.emit(p.c, k%n)
		}
		sp := p.tr.begin("publish-enqueue", 0)
		err := p.f.emit(p.c, k%n)
		p.tr.end(sp)
		return err
	}
	if p.rate == 0 {
		var want uint64
		var at, sweepStart time.Time
		for k := 0; ; k++ {
			if k%64 == 0 && stop.Load() {
				return
			}
			if k%n == 0 {
				now := time.Now()
				if rec.Load() && !sweepStart.IsZero() {
					p.passLat = append(p.passLat, ms(now.Sub(sweepStart)))
				}
				sweepStart = now
			}
			if p.err = emit(k); p.err != nil {
				return
			}
			switch {
			case want == 0 && k%256 == 0 && rec.Load():
				want, at = p.c.Stats().Published, time.Now()
			case want != 0 && k%16 == 0 && p.c.Stats().Acked >= want:
				p.ackLat = append(p.ackLat, ms(time.Since(at)))
				want = 0
			}
		}
	}
	t0 := time.Now()
	k := 0
	for tick := 1; !stop.Load(); tick++ {
		due := t0.Add(time.Duration(tick) * time.Millisecond)
		time.Sleep(time.Until(due))
		// Every tick counts, also one reached already late because the
		// tick before it blocked in Publish: a generator that falls behind
		// and catches up in a burst did not offer its load evenly.
		if rec.Load() {
			p.late = append(p.late, ms(time.Since(due)))
		}
		for target := int(float64(tick) * p.rate / 1000); k < target; k++ {
			if p.err = emit(k); p.err != nil {
				return
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
