package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/transport"
)

// The layer ladder replays a fixed seeded sample, sequentially and on
// the quiesced pipeline, through successively deeper public entry
// points. A layer's self time is its rung minus the rung below, taken per
// sample: every block of batches and every query climbs all rungs back to
// back, so a drift of the machine's speed moves the rungs together, and
// the metric is the median of the per-sample differences. Sample sizes
// are what a traced run can afford inside the suite's time cap.
const (
	ladderTopics  = 256 // batches per block: one per topic
	ladderBlocks  = 80  // 20 480 batches per rung
	ladderAcks    = 2000
	ladderQueries = 60 // per query kind
	ladderTicks   = 40
)

// ladderTopicsOf names one rung's own topics.
func ladderTopicsOf(rung string) []sensor.Topic {
	topics := make([]sensor.Topic, ladderTopics)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/ladder/%s/t%03d", rung, i))
	}
	return topics
}

// ladderFeed yields the ladder's batches block by block: the next
// batch of every ladder topic, seeded values, timestamps ascending per
// topic. Making a block is not timed; fn runs it through the rungs.
func (r *run) ladderFeed(blocks int, fn func(block [][]sensor.Reading)) {
	vals := make([]int32, ladderTopics)
	for i := range vals {
		vals[i] = r.walk.start(ladderID + i)
	}
	base := time.Now().UnixNano()
	block := make([][]sensor.Reading, ladderTopics)
	for i := range block {
		block[i] = make([]sensor.Reading, batchLen)
	}
	for b := 0; b < blocks; b++ {
		for i, rs := range block {
			idx := int64(b) * batchLen
			for j := range rs {
				vals[i] = r.walk.next(vals[i], ladderID+i, idx)
				rs[j] = sensor.Reading{Value: float64(vals[i]) / 10, Time: base + idx*int64(time.Millisecond)}
				idx++
			}
		}
		fn(block)
	}
}

// selfTime is the median of the per-sample differences upper-lower. A
// layer that adds less than the rungs resolve comes out around zero, on
// either side, and is reported as measured. Further below zero than 2 %
// of the rungs it is subtracted from, the rungs are not measuring what
// they claim: the traced run fails rather than report it.
func selfTime(name string, upper []float64, lower ...[]float64) (float64, error) {
	diff := make([]float64, len(upper))
	below := make([]float64, len(upper))
	for i := range upper {
		for _, l := range lower {
			below[i] += l[i]
		}
		diff[i] = upper[i] - below[i]
	}
	d := median(diff)
	if d < -0.02*median(below) {
		return 0, fmt.Errorf("%s came out negative (%.4g against rungs of %.4g): the ladder did not resolve it", name, d, median(below))
	}
	return d, nil
}

// ingestLadder fills the write-path rungs.
func (r *run) ingestLadder() error {
	m, agent := r.m, r.s.agent

	// Rungs 1 to 4: the wire format alone, the store, the sensor cache,
	// and the agent's sink, which is cache, store, result-cache note and
	// sensor tree. Each has its own topics and sees the same readings.
	var werr error
	caches := make([]*cache.Cache, ladderTopics)
	for i := range caches {
		caches[i] = cache.New(180, time.Second)
	}
	rungs := []struct {
		name   string
		topics []sensor.Topic
		fn     func(i int, topic sensor.Topic, rs []sensor.Reading)
		ns     []float64 // per batch, one entry per block
	}{
		{name: "transport.wire", fn: func(_ int, topic sensor.Topic, rs []sensor.Reading) {
			p := transport.EncodePublishV2(transport.Message{Topic: topic, Readings: rs, Epoch: 1, Seq: 1})
			// Skip the uvarint (epoch, seq) prefix the way the broker does.
			_, n1 := binary.Uvarint(p)
			_, n2 := binary.Uvarint(p[n1:])
			if _, err := transport.DecodePublish(p[n1+n2:]); err != nil {
				werr = err
			}
		}},
		{name: "tsdb.InsertBatch", fn: func(_ int, topic sensor.Topic, rs []sensor.Reading) { agent.DB.InsertBatch(topic, rs) }},
		{name: "cache.StoreBatch", fn: func(i int, _ sensor.Topic, rs []sensor.Reading) { caches[i].StoreBatch(rs) }},
		{name: "collect.IngestBatch", fn: func(_ int, topic sensor.Topic, rs []sensor.Reading) { agent.IngestBatch(topic, rs) }},
	}
	for k := range rungs {
		rungs[k].topics = ladderTopicsOf(rungs[k].name)
	}
	r.ladderFeed(ladderBlocks, func(block [][]sensor.Reading) {
		for k := range rungs {
			g := &rungs[k]
			d := r.tr.timed("ladder:"+g.name, 0, func() {
				for i, rs := range block {
					g.fn(i, g.topics[i], rs)
				}
			})
			g.ns = append(g.ns, float64(d)/ladderTopics)
		}
	})
	if werr != nil {
		return werr
	}
	wire, insert, store, ingest := rungs[0].ns, rungs[1].ns, rungs[2].ns, rungs[3].ns
	m["transport.wire_ns_per_reading"] = median(wire) / batchLen
	m["tsdb.insert_us_per_batch"] = median(insert) / 1e3
	m["cache.store_ns_per_reading"] = median(store) / batchLen
	self, err := selfTime("collect.ingest_self_us_per_batch", ingest, insert, store)
	if err != nil {
		return err
	}
	m["collect.ingest_self_us_per_batch"] = self / 1e3

	// Rung 5: a spooled publish, one in flight, until its PubAck is seen.
	// What the round trip spends beyond the wire format is the client's
	// spool and sender, TCP, and the broker's route, dedup and enqueue.
	c, topics := r.s.pubs[0], ladderTopicsOf("pub")
	var rtts []float64
	var perr error
	r.ladderFeed(ladderAcks/ladderTopics+1, func(block [][]sensor.Reading) {
		for i, rs := range block {
			if len(rtts) == ladderAcks || perr != nil {
				return
			}
			rtts = append(rtts, float64(r.tr.timed("ladder:publish-acked", 0, func() {
				if perr = c.Publish(topics[i], rs); perr != nil {
					return
				}
				// Yield while waiting: a spinning goroutine would hold one
				// of the two cores against the sender, broker and receiver.
				for want := c.Stats().Published; c.Stats().Acked < want; {
					runtime.Gosched()
				}
			}))/1e3)
		}
	})
	if perr != nil {
		return perr
	}
	m["transport.ack_rtt_p50_us"] = median(rtts)
	m["transport.route_self_us_per_batch"] = median(rtts) - median(wire)/1e3
	if m["transport.route_self_us_per_batch"] < 0 {
		return fmt.Errorf("transport.route_self_us_per_batch came out negative: an acked publish took less than its wire format")
	}

	// The read side of the sensor cache: the tester operator's query.
	const views = 20000
	live, _ := agent.Caches.Get(liveTopics()[0])
	var buf []sensor.Reading
	view := r.tr.timed("ladder:cache.ViewRelative", 0, func() {
		for i := 0; i < views; i++ {
			buf = live.ViewRelative(50*time.Second, buf[:0])
		}
	})
	m["cache.view_ns_per_query"] = float64(view) / views
	return r.s.drained(5 * time.Second)
}

// ladderQuery is one query of the read-path sample.
type ladderQuery struct {
	kind       opKind
	topics     []sensor.Topic
	path       string
	start, end int64
}

// querySample draws the workload's own query mix again: panel windows
// over the newest stored minute for steady-mixed, the three cold kinds
// for cold-scan, nothing for the workloads that issue no queries.
func (r *run) querySample() []ladderQuery {
	var qs []ladderQuery
	switch {
	case r.w.opKind == opPanel:
		last, _ := r.s.agent.DB.Latest(liveTopics()[0])
		newest := time.Unix(0, last.Time).Truncate(time.Second).UnixNano()
		for i := 0; i < 2*ladderQueries; i++ {
			end := newest - int64(1+i/panels)*int64(time.Second)
			rack := fmt.Sprintf("/r%02d", i%panels)
			qs = append(qs, ladderQuery{kind: opPanel, start: end - int64(panelWindow), end: end,
				topics: r.s.agent.QE.TopicsPrefix(sensor.Topic(rack)),
				path:   fmt.Sprintf("/query?sensor=%s/%%23&op=avg&start=%d&end=%d", rack, end-int64(panelWindow), end)})
		}
	case r.w.cold:
		c := r.cold
		for i := 0; i < 3*ladderQueries; i++ {
			kind := []opKind{opRange, opAgg, opDown}[i%3]
			span := int64(aggSpan)
			if kind == opRange {
				span = int64(rangeSpan)
			}
			sec := int64(time.Second)
			q := ladderQuery{kind: kind, start: c.t0 + r.obs.rng.Int63n(c.readings-span/sec)*sec}
			q.end = q.start + span
			if kind == opRange {
				q.topics = c.topics[r.obs.rng.Intn(len(c.topics)):][:1]
				q.path = fmt.Sprintf("/query?sensor=%s&from=%d&to=%d", q.topics[0], q.start, q.end)
			} else {
				g := r.obs.rng.Intn(coldGroups)
				q.topics = c.topics[g*coldPerGroup:][:coldPerGroup]
				q.path = fmt.Sprintf("/query?sensor=/cold/g%02d/%%23&op=avg&start=%d&end=%d", g, q.start, q.end)
				if kind == opDown {
					q.path += "&step=60s"
				}
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// queryLadder fills the read-path rungs; every query climbs them back to
// back. Self times of core and rest are taken on the workload's own kind
// of query (panel, or cold range), so they add up to its median.
func (r *run) queryLadder() error {
	qs := r.querySample()
	if len(qs) == 0 {
		return nil
	}
	m, agent := r.m, r.s.agent
	var rs []sensor.Reading
	var bs []store.Bucket
	step := int64(time.Minute)
	var herr error
	serve := func(h http.Handler) func(q ladderQuery) {
		return func(q ladderQuery) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", q.path, nil))
			if rec.Code != http.StatusOK {
				herr = fmt.Errorf("ladder: %s answered %d", q.path, rec.Code)
			}
		}
	}
	cached := serve(rest.NewHandler(agent.Manager, agent.QE, rest.Options{ResultCache: resultcache.New(4096, 0)}))
	get := func(q ladderQuery) {
		if code, _, err := r.s.get(q.path); err != nil || code != http.StatusOK {
			herr = fmt.Errorf("ladder: GET %s: %d %v", q.path, code, err)
		}
	}
	rc := resultcache.New(4096, 0)
	const (
		rungDB = iota
		rungQE
		rungPlain
		rungRC
		rungFill
		rungHit
		rungGetFill
		rungGet
		numRungs
	)
	rungs := [numRungs]struct {
		name string
		fn   func(q ladderQuery)
	}{
		rungDB: {"tsdb", func(q ladderQuery) {
			for _, t := range q.topics {
				switch q.kind {
				case opRange:
					rs = agent.DB.Range(t, q.start, q.end, rs[:0])
				case opDown:
					bs = agent.DB.Downsample(t, q.start, q.end, step, bs[:0])
				default:
					agent.DB.Aggregate(t, q.start, q.end)
				}
			}
		}},
		rungQE: {"core.QueryEngine", func(q ladderQuery) {
			for _, t := range q.topics {
				switch q.kind {
				case opRange:
					rs = agent.QE.QueryAbsolute(t, q.start, q.end, rs[:0])
				case opDown:
					bs = agent.QE.Downsample(t, q.start, q.end, step, bs[:0])
				default:
					agent.QE.AggregateAbsolute(t, q.start, q.end)
				}
			}
		}},
		rungPlain: {"rest.Handler", serve(rest.NewHandler(agent.Manager, agent.QE))},
		// What a miss costs in the result cache itself, called the way the
		// handler calls it: digest, failed lookup, stamp, insert. It is too
		// small to resolve as the difference of two handler passes.
		rungRC: {"resultcache:miss", func(q ladderQuery) {
			key := resultcache.Key{Digest: resultcache.DigestTopics(q.topics), Kind: resultcache.KindAggregate, Start: q.start, End: q.end}
			if _, ok := rc.Get(key, q.topics); !ok {
				rc.Put(key, rc.Begin(q.topics), nil)
			}
		}},
		rungFill: {"rest.Handler+resultcache:miss", cached},
		rungHit:  {"rest.Handler+resultcache:hit", cached},
		// The second GET of a query is a result-cache hit like the
		// handler's second pass, so their difference is HTTP and the
		// loopback alone.
		rungGetFill: {"GET:miss", get},
		rungGet:     {"GET:hit", get},
	}
	var us [numKinds][numRungs][]float64
	for _, q := range qs {
		var d [numRungs]float64
		pass := func(k int) float64 {
			return float64(r.tr.timed("ladder:"+rungs[k].name, 0, func() { rungs[k].fn(q) })) / 1e3
		}
		// The engine adds microseconds to a store read of hundreds, less
		// than single passes jitter by: the two rungs alternate and each
		// keeps its fastest pass. The first pass also warms the memory
		// every later rung of this query reads.
		d[rungDB], d[rungQE] = math.Inf(1), math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			d[rungDB] = min(d[rungDB], pass(rungDB))
			d[rungQE] = min(d[rungQE], pass(rungQE))
		}
		for k := rungPlain; k < numRungs; k++ {
			d[k] = pass(k)
		}
		for k := range d {
			us[q.kind][k] = append(us[q.kind][k], d[k])
		}
	}
	if herr != nil {
		return herr
	}
	m["tsdb.range_us"] = median(us[opRange][rungDB])
	m["tsdb.aggregate_us"] = median(us[opAgg][rungDB]) + median(us[opPanel][rungDB])
	m["tsdb.downsample_us"] = median(us[opDown][rungDB])
	op := us[r.w.opKind]
	m["resultcache.hit_us"] = median(op[rungHit])
	m["resultcache.miss_overhead_us"] = median(op[rungRC])
	for _, d := range []struct {
		name         string
		upper, lower int
	}{
		{"core.query_self_us", rungQE, rungDB},
		{"rest.render_self_us", rungPlain, rungQE},
		{"rest.http_self_us", rungGet, rungHit},
	} {
		var err error
		if m[d.name], err = selfTime(d.name, op[d.upper], op[d.lower]); err != nil {
			return err
		}
	}
	return nil
}

// tickLadder fills the operator rungs: each operator ticked alone and
// inline, then TickAll through the scheduler.
func (r *run) tickLadder() error {
	if !r.w.plugins {
		return nil
	}
	m, agent := r.m, r.s.agent
	now := time.Now()
	var terr error
	alone := func(name string) (us float64, units int) {
		op, _ := agent.Manager.Operator(name)
		var ds []float64
		for i := 0; i < ladderTicks; i++ {
			ds = append(ds, float64(r.tr.timed("ladder:core.Tick:"+name, 0, func() {
				if err := core.Tick(op, agent.QE, agent.Sink(), now); err != nil {
					terr = err
				}
			}))/1e3)
		}
		return median(ds), len(op.Units())
	}
	nodeUs, nodeUnits := alone("node-sum")
	rackUs, rackUnits := alone("rack-avg")
	m["plugins.aggregator_us_per_unit"] = (nodeUs + rackUs) / float64(nodeUnits+rackUnits)
	smoothUs, smoothUnits := alone("power-smooth")
	m["plugins.smoothing_us_per_unit"] = smoothUs / float64(smoothUnits)
	testerUs, _ := alone("tester")
	m["plugins.tester_us_per_query"] = testerUs / 1000
	var all []float64
	for i := 0; i < ladderTicks; i++ {
		all = append(all, float64(r.tr.timed("ladder:Manager.TickAll", 0, func() {
			if err := agent.Manager.TickAll(now); err != nil {
				terr = err
			}
		}))/1e3)
	}
	m["core.tick_us_per_unit"] = median(all) / float64(nodeUnits+rackUnits+smoothUnits+1)
	return terr
}
