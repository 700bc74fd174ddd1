// Fixture for the batchinsert analyzer: per-batch calls in loops are
// findings exactly when the receiver offers the burst sibling, except
// inside the sibling's own implementation.
package fixture

type db struct{}

func (db) InsertBatch(vs []int) {}

func (d db) InsertBatches(vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) // clean: the burst call's own implementation
	}
}

type plain struct{}

func (plain) InsertBatch(vs []int) {}

func loopInsertBatch(d db, vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) // want "per-element InsertBatch call in a loop"
	}
}

func nestedLoop(d db, vsss [][][]int) {
	for _, vss := range vsss {
		for _, vs := range vss {
			d.InsertBatch(vs) // want "per-element InsertBatch call in a loop"
		}
	}
}

func noSibling(p plain, vss [][]int) {
	for _, vs := range vss {
		p.InsertBatch(vs) // clean: this receiver has no InsertBatches
	}
}

func notInLoop(d db, vs []int) {
	d.InsertBatch(vs) // clean: not in a loop
}

func literalResetsDepth(d db, vss [][]int) []func() {
	var fns []func()
	for _, vs := range vss {
		vs := vs
		fns = append(fns, func() { d.InsertBatch(vs) }) // clean: the literal runs at an unknown point
	}
	return fns
}
