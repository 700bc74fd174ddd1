// Fixture for the //lint:ignore machinery: a well-formed suppression
// silences its finding, a malformed one (missing reason) suppresses
// nothing and is itself reported.
package fixture

type db struct{}

func (db) InsertBatch(vs []int) {}

func (d db) InsertBatches(vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs)
	}
}

func suppressed(d db, vss [][]int) {
	for _, vs := range vss {
		//lint:ignore batchinsert fixture exercises a sanctioned suppression
		d.InsertBatch(vs) // clean: suppressed by the directive above
	}
}

func suppressedSameLine(d db, vss [][]int) {
	for _, vs := range vss {
		d.InsertBatch(vs) //lint:ignore batchinsert same-line suppression form
	}
}

func malformed(d db, vss [][]int) {
	for _, vs := range vss {
		//lint:ignore batchinsert
		// want-above "malformed //lint:ignore"
		d.InsertBatch(vs) // want "per-element InsertBatch call in a loop"
	}
}
