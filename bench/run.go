package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// maxLateness invalidates a run: an open-loop generator more than one in
// ten of whose ticks began later than this did not offer the load it
// claims. The 99th percentile is reported and not judged: on two cores
// the pipeline's own bursts (janitor flush, TickAll) hold both for a few
// per cent of the time, and a generator in the same process then waits
// for Go's 10 ms preemption, however idle the machine.
const maxLateness = 5.0 // ms

// runOnce executes one workload: set-up (timed several times), the
// generator through warm-up and window, drain and final flush, the
// correctness checks and, traced, the layer ladder.
func runOnce(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	r := &run{w: w, walk: walk{seed}, traced: traced, m: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	var setups []float64
	for begin := time.Now(); len(setups) < setupRuns ||
		(len(setups) < maxSetupRuns && time.Since(begin) < setupBudget); {
		if r.s != nil {
			if err := r.s.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := r.setUp(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { r.s.close() }()

	r.startGenerator()
	marks := r.measure(window)
	res := &result{workload: w.name, m: r.m, samples: map[string]int{}}
	res.attempted, res.failed = r.obs.attempted, r.obs.failed
	if r.obs.err != nil {
		return nil, fmt.Errorf("%s: observer: %w", w.name, r.obs.err)
	}
	var late []float64
	late = append(late, r.obs.late...)
	for _, p := range r.pubs {
		if p.err != nil {
			return nil, fmt.Errorf("%s: publish: %w", w.name, p.err)
		}
		res.attempted += p.f.sent.Load() / batchLen
		late = append(late, p.late...)
	}
	if err := r.s.drained(5 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		res.failed++
	}
	db := r.s.agent.DB
	headReadings := db.Stats().HeadReadings
	flushStart := time.Now()
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("%s: final flush: %w", w.name, err)
	}
	flushS := time.Since(flushStart).Seconds()
	st := db.Stats()

	if err := r.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: INCORRECT: %v\n", w.name, err)
	} else {
		res.correct = true
	}
	lateP99 := pct(late, 0.99)
	// Closed loops saturate the CPUs by design; there a late wake-up
	// measures that, not a generator that failed to offer its load.
	if p90 := pct(late, 0.90); p90 > maxLateness && !w.closedLoop() {
		return nil, fmt.Errorf("%s: invalid run: the generator ran %.2f ms late at p90, %.2f ms at p99 (limit %.0f ms at p90); is the machine idle?",
			w.name, p90, lateP99, maxLateness)
	}

	// End-to-end metrics come from the last window, which in a traced
	// run is the traced half.
	a, b := marks[len(marks)-2], marks[len(marks)-1]
	stored := float64(b.stored - a.stored)
	var ackLat, passLat []float64
	for _, p := range r.pubs {
		ackLat = append(ackLat, p.ackLat...)
		passLat = append(passLat, p.passLat...)
	}
	set := func(name string, v float64, n int) {
		r.m[name] = v
		if n > 0 {
			res.samples[name] = n
		}
	}
	set("setup_s", median(setups), len(setups))
	set("ingest_readings_per_s", stored/b.t.Sub(a.t).Seconds(), 0)
	set("disk_bytes_per_reading", float64(st.DiskBytes)/float64(st.TotalReadings), 0)
	set("cpu_s_per_mreading", (b.cpu-a.cpu)/(stored/1e6), 0)
	// The medians a user would feel. This box does not repeat them to
	// within a bound (README, "Bounds"), so they are per-layer metrics;
	// every run prints the ones its workload has.
	lat := &r.obs.lat
	for _, md := range []struct {
		name string
		xs   []float64
	}{
		{"transport.pass_p50_ms", passLat},
		{"rest.freshness_p50_ms", lat[opProbe]},
		{"rest.dash_query_p50_ms", lat[opPanel]},
		{"rest.cold_range_p50_ms", lat[opRange]},
		{"rest.cold_agg_p50_ms", lat[opAgg]},
		{"rest.cold_downsample_p50_ms", lat[opDown]},
		{"core.tick_p50_ms", lat[opTick]},
	} {
		set(md.name, median(md.xs), len(md.xs))
	}
	if traced {
		if err := r.perLayer(marks, b.t.Sub(a.t), lateP99, flushS, headReadings, ackLat); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
		if err := r.tr.write(w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

// pct is the nearest-rank percentile; 0 for no samples.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}
