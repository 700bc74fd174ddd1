// Fixture for the batchinsert analyzer: per-element calls in loops are
// findings exactly when the receiver offers a batched sibling, except
// inside the sibling's own implementation.
package fixture

type db struct{}

func (db) Insert(v int) {}

func (d db) InsertBatch(vs []int) {
	for _, v := range vs {
		d.Insert(v) // clean: the batched sibling's own implementation
	}
}

type sink struct{}

func (sink) Push(v int)          {}
func (sink) PushBatch(vs []int)  {}
func (sink) PushSeries(vs []int) {}

// burstDB offers the burst call one level above InsertBatch.
type burstDB struct{}

func (burstDB) InsertBatch(vs []int) {}

func (d burstDB) InsertBatches(vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) // clean: the burst call's own implementation
	}
}

type burstSink struct{}

func (burstSink) PushSeries(vs []int)   {}
func (burstSink) PushBurst(vss [][]int) {}

type plain struct{}

func (plain) Insert(v int) {}

func loopInsert(d db, vs []int) {
	for _, v := range vs {
		d.Insert(v) // want "per-element Insert call in a loop"
	}
}

func loopPush(s sink, n int) {
	for i := 0; i < n; i++ {
		s.Push(i) // want "per-element Push call in a loop"
	}
}

func nestedLoop(d db, vs [][]int) {
	for _, row := range vs {
		for _, v := range row {
			d.Insert(v) // want "per-element Insert call in a loop"
		}
	}
}

func loopInsertBatch(d burstDB, vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) // want "per-element InsertBatch call in a loop"
	}
}

func loopPushSeries(s burstSink, vss [][]int) {
	for _, vs := range vss {
		s.PushSeries(vs) // want "per-element PushSeries call in a loop"
	}
}

func batchNoBurst(d db, vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) // clean: this receiver has no InsertBatches
	}
}

func noSibling(p plain, vs []int) {
	for _, v := range vs {
		p.Insert(v) // clean: no batched sibling on the receiver
	}
}

func notInLoop(d db, v int) {
	d.Insert(v) // clean: not in a loop
}

func literalResetsDepth(d db, vs []int) []func() {
	var fns []func()
	for _, v := range vs {
		v := v
		fns = append(fns, func() { d.Insert(v) }) // clean: the literal runs at an unknown point
	}
	return fns
}
