package tsdb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// SealedChecksum hashes the sealed run of every head — what a flush in
// progress is writing — together with its topic, independent of map
// order. It is 0 when no flush is running. The tier model takes it when
// the segment write starts and checks it at every later step of the
// write: a sealed run changes only if one of its blocks was handed to
// an insert too early.
func (db *DB) SealedChecksum() uint64 {
	var sum uint64
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for topic, h := range sh.heads {
			sealed := h.runs()[0]
			if len(sealed) == 0 {
				continue
			}
			f := fnv.New64a()
			f.Write([]byte(topic))
			var b [16]byte
			for _, blk := range sealed {
				for _, r := range blk {
					binary.LittleEndian.PutUint64(b[:8], uint64(r.Time))
					binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Value))
					f.Write(b[:])
				}
			}
			sum += f.Sum64()
		}
		sh.mu.RUnlock()
	}
	return sum
}

// setSeam sets the hook that runs between the two tiers of every read,
// with db.mu held shared. Set it before the DB has concurrent users.
func (db *DB) setSeam(f func()) { db.seam = f }
