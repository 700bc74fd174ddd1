package tsdb

import (
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// This file implements the aggregation half of store.Backend for the
// tsdb engine: windowed aggregates and time-bucketed downsampling
// evaluated directly over the storage tiers — per-chunk pre-aggregates
// and streaming chunk decodes for segments, binary-searched streaming
// passes over the head's blocks. Raw readings are never materialized
// into a slice; a fully-covered v2 chunk is answered from index
// metadata in O(1).

// Aggregate implements store.Backend. Per segment chunk it merges
// the flush-time pre-aggregates when the window (clamped to the
// retention watermark) fully covers the chunk, and streams the decoder
// over boundary chunks; the head's runs are reduced in one pass
// each. Like Range, it reads every tier under one shared hold of db.mu,
// so a concurrent flush or prune can never make readings invisible (or
// visible twice) to the accumulator, and a corrupt chunk is skipped
// whole.
func (db *DB) Aggregate(topic sensor.Topic, t0, t1 int64) store.AggResult {
	if t1 < t0 {
		return store.AggResult{}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	lo := max(t0, db.floor)
	var a store.AggResult
	for _, s := range db.segs {
		if part, err := s.aggregate(topic, lo, t1); err == nil {
			a.Merge(part)
		}
	}
	db.betweenTiers()
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	a.Merge(sh.heads[topic].aggregate(lo, t1))
	sh.mu.RUnlock()
	return a
}

// Downsample implements store.Backend. Every tier yields its buckets
// in Start order (chunks and a head's two runs are all time-sorted; a
// run is bucketed in one fold across its blocks), so the tiers are combined by pairwise ordered merges —
// no dense bucket array whose size scales with the window instead of
// the data. A chunk that the window fully covers and that falls into a
// single bucket is merged from its pre-aggregates without a decode.
func (db *DB) Downsample(topic sensor.Topic, t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	if step <= 0 || t1 < t0 {
		return dst
	}
	var cur, tier, merged []store.Bucket
	var win [][]sensor.Reading
	db.mu.RLock()
	defer db.mu.RUnlock()
	lo := max(t0, db.floor)
	for _, s := range db.segs {
		var err error
		tier, err = s.downsample(topic, t0, lo, t1, step, tier[:0])
		if err != nil {
			continue
		}
		cur, merged = mergeBuckets(cur, tier, merged[:0]), cur
	}
	db.betweenTiers()
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	for _, run := range sh.heads[topic].runs() {
		win = appendWindow(win[:0], run, lo, t1)
		tier = store.AppendBuckets(tier[:0], t0, step, win...)
		cur, merged = mergeBuckets(cur, tier, merged[:0]), cur
	}
	sh.mu.RUnlock()
	return append(dst, cur...)
}

// aggregate reduces the series' readings within [t0, t1]; a fully
// covered v2 chunk is answered from the index pre-aggregates without
// touching the chunk bytes. A decode error discards the whole chunk's
// contribution, mirroring appendRange.
func (s *segment) aggregate(topic sensor.Topic, t0, t1 int64) (store.AggResult, error) {
	var a store.AggResult
	ss, ok := s.series[topic]
	if !ok || ss.maxT < t0 || ss.minT > t1 {
		return a, nil
	}
	if ss.minT >= t0 && ss.maxT <= t1 {
		return store.AggResult{Count: int64(ss.count), Sum: ss.vsum, Min: ss.vmin, Max: ss.vmax}, nil
	}
	it, err := s.readChunk(ss)
	if err != nil {
		return store.AggResult{}, err
	}
	for it.Next() {
		r := it.At()
		if r.Time > t1 {
			break
		}
		if r.Time >= t0 {
			a.Observe(r.Value)
		}
	}
	if err := it.Err(); err != nil {
		return store.AggResult{}, err
	}
	return a, nil
}

// downsample appends the series' buckets within [lo, t1] to dst in
// Start order (buckets aligned to t0). A fully covered chunk that fits
// in one bucket is merged from its pre-aggregates; otherwise the chunk
// is decoded streaming, emitting buckets as the sorted timestamps cross
// bucket boundaries. A decode error discards the chunk whole.
func (s *segment) downsample(topic sensor.Topic, t0, lo, t1, step int64, dst []store.Bucket) ([]store.Bucket, error) {
	ss, ok := s.series[topic]
	if !ok || ss.maxT < lo || ss.minT > t1 {
		return dst, nil
	}
	if ss.minT >= lo && ss.maxT <= t1 {
		if k := (ss.minT - t0) / step; k == (ss.maxT-t0)/step {
			return append(dst, store.Bucket{Start: t0 + k*step, AggResult: store.AggResult{
				Count: int64(ss.count), Sum: ss.vsum, Min: ss.vmin, Max: ss.vmax,
			}}), nil
		}
	}
	it, err := s.readChunk(ss)
	if err != nil {
		return dst, err
	}
	mark := len(dst)
	var a store.AggResult
	k := int64(-1)
	for it.Next() {
		r := it.At()
		if r.Time > t1 {
			break
		}
		if r.Time < lo {
			continue
		}
		if rk := (r.Time - t0) / step; rk != k {
			if a.Count > 0 {
				dst = append(dst, store.Bucket{Start: t0 + k*step, AggResult: a})
			}
			a, k = store.AggResult{}, rk
		}
		a.Observe(r.Value)
	}
	if err := it.Err(); err != nil {
		return dst[:mark], err
	}
	if a.Count > 0 {
		dst = append(dst, store.Bucket{Start: t0 + k*step, AggResult: a})
	}
	return dst, nil
}

// mergeBuckets merges two Start-ordered bucket lists into dst,
// combining buckets with equal Start. The tiers of one series overlap
// in time only around flush boundaries and out-of-order arrivals, so
// the merge is usually a near-concatenation.
func mergeBuckets(a, b, dst []store.Bucket) []store.Bucket {
	if len(a) == 0 {
		return append(dst, b...)
	}
	if len(b) == 0 {
		return append(dst, a...)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Start < b[j].Start:
			dst = append(dst, a[i])
			i++
		case b[j].Start < a[i].Start:
			dst = append(dst, b[j])
			j++
		default:
			m := a[i]
			m.Merge(b[j].AggResult)
			dst = append(dst, m)
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
