//go:build race

package collect

// raceEnabled reports a build under the race detector, where sync.Pool
// drops a quarter of its Puts on purpose and pooled buffers allocate.
const raceEnabled = true
