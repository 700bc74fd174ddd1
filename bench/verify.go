package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"time"

	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/sensor"
)

// verify checks the quiesced store against what the generator sent and
// what the seed says it should have sent. It is the one verifier all
// four workloads share; each part applies where the workload has the
// thing it checks.
func (r *run) verify() error {
	db := r.s.agent.DB
	want := r.preloaded + int(r.obs.probes)
	for _, p := range r.pubs {
		want += int(p.f.sent.Load())
	}
	if !r.w.plugins { // operator outputs are stored too; their number is not fixed
		if got := db.TotalReadings(); got != want {
			return fmt.Errorf("store holds %d readings, publishers were accepted %d", got, want)
		}
	}
	if got := db.Count(probeTopic); got != int(r.obs.probes) {
		return fmt.Errorf("%s holds %d readings, %d probes were sent", probeTopic, got, r.obs.probes)
	}
	for _, p := range r.pubs {
		if err := r.verifyFeed(p.f); err != nil {
			return err
		}
	}
	if err := r.verifyKept(); err != nil {
		return err
	}
	if r.w.plugins {
		return r.verifyNodeSums()
	}
	return nil
}

// verifyFeed checks every topic's count, and for one topic in a hundred
// every stored reading against the walk.
func (r *run) verifyFeed(f *feed) error {
	db := r.s.agent.DB
	var rs []sensor.Reading
	for i, topic := range f.topics {
		if got := db.Count(topic); got != int(f.idx[i]) {
			return fmt.Errorf("%s holds %d readings, %d were published", topic, got, f.idx[i])
		}
		if r.walk.hash(f.firstID+i, -2)%100 != 0 {
			continue
		}
		rs = db.Range(topic, math.MinInt64, math.MaxInt64, rs[:0])
		var bad error
		r.walk.replay(f.firstID+i, f.idx[i], func(idx int64, v float64) {
			if got := rs[idx]; bad == nil && (got.Value != v || got.Time != f.ts(idx)) {
				bad = fmt.Errorf("%s reading %d is %v, the seed gives {%v %d}", topic, idx, got, v, f.ts(idx))
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// verifyKept replays the answers the observer kept. Panel answers (some
// served from the result cache under ingest) must be byte-equal to a
// handler without a result cache on the settled store; cold averages
// must equal the mean the seed gives.
func (r *run) verifyKept() error {
	uncached := rest.NewHandler(r.s.agent.Manager, r.s.agent.QE)
	for _, k := range r.obs.keep {
		switch k.kind {
		case opPanel:
			rec := httptest.NewRecorder()
			uncached.ServeHTTP(rec, httptest.NewRequest("GET", k.path, nil))
			if !bytes.Equal(rec.Body.Bytes(), k.body) {
				return fmt.Errorf("panel %s: answer under ingest differs from the uncached replay:\n%s\n%s", k.path, k.body, rec.Body.Bytes())
			}
		case opAgg:
			var sum float64
			var n int64
			first := (k.start - r.cold.t0) / int64(time.Second)
			last := first + int64(aggSpan/time.Second)
			for t := k.topic; t < k.topic+coldPerGroup; t++ {
				r.walk.replay(coldID+t, last+1, func(idx int64, v float64) {
					if idx >= first {
						sum += v
						n++
					}
				})
			}
			at := bytes.LastIndex(k.body, []byte(`"value":`))
			if at < 0 {
				return fmt.Errorf("cold avg %s: no combined value in %s", k.path, k.body)
			}
			got, err := strconv.ParseFloat(string(bytes.TrimRight(k.body[at+len(`"value":`):], "}\n")), 64)
			if err != nil {
				return fmt.Errorf("cold avg %s: %w", k.path, err)
			}
			if want := sum / float64(n); math.Abs(got-want) > 1e-9*math.Abs(want) {
				return fmt.Errorf("cold avg %s: got %v, the seed gives %v", k.path, got, want)
			}
		}
	}
	return nil
}

// verifyNodeSums ticks once more at a fixed time on the quiesced
// pipeline and checks every node-sum output: the sum over the node's
// four sensors of the mean of the last batch each received.
func (r *run) verifyNodeSums() error {
	at := time.Unix(4102444800, 0) // 2100-01-01: newer than anything stored
	if err := r.s.agent.Manager.TickAll(at); err != nil {
		return fmt.Errorf("final tick: %w", err)
	}
	f := r.pubs[0].f
	for node := 0; node < racks*nodesPerRack; node++ {
		var want float64
		for s := range sensorNames {
			var sum float64
			for _, rd := range f.last[node*len(sensorNames)+s] {
				sum += rd.Value
			}
			want += sum / batchLen
		}
		topic := f.topics[node*len(sensorNames)].Node().Join("node-sum")
		got, ok := r.s.agent.QE.Latest(topic)
		if !ok || got.Time != at.UnixNano() || math.Abs(got.Value-want) > 1e-9*want {
			return fmt.Errorf("%s is %v, the seed gives %v", topic, got, want)
		}
	}
	return nil
}
