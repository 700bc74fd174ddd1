//go:build race

package transport

// raceEnabled reports a build under the race detector, whose
// bookkeeping allocates where the plain build does not.
const raceEnabled = true
