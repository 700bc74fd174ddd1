// Command chaosrunner executes one chaos scenario (internal/chaos)
// against the real in-process pipeline and emits its JSON verdict.
//
// The exit status is the gate: 0 when the accounting is clean — with
// the default at-least-once spool that means zero lost readings, period
// (nothing acked-lost, nothing unacked-dropped), plus zero duplicates,
// phantoms and mismatches — 1 otherwise. `make chaos` runs the full
// pre-merge configuration; `make chaos-smoke` runs the seeded
// in-package smoke test under -race instead.
//
// Usage:
//
//	chaosrunner -pushers 1500 -topics 4 -rate 10 -duration 30s -out verdict.json
//
// A fixed -seed reproduces a run's fault dice exactly; 0 derives one
// from the wall clock and prints it in the verdict for replay.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/chaos"
)

func main() {
	var (
		seed      = flag.Int64("seed", 0, "scenario seed (0 = derive from wall clock, reported in the verdict)")
		pushers   = flag.Int("pushers", 1000, "simulated pusher connections")
		topics    = flag.Int("topics", 4, "sensor topics per pusher")
		rate      = flag.Float64("rate", 5, "batches per topic per second")
		batch     = flag.Int("batch", 10, "readings per batch")
		duration  = flag.Duration("duration", 30*time.Second, "publish window")
		queryLoad = flag.Int("query-workers", 4, "concurrent REST query workers")
		dir       = flag.String("dir", "", "store directory (empty = temp)")
		out       = flag.String("out", "", "write the JSON verdict to this file (always printed to stdout)")
		spool     = flag.Int("spool", 0, "pusher spool size in batches (0 = default 256, negative = QoS 0, at-most-once)")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	v, err := chaos.Scenario{
		Seed:         *seed,
		Pushers:      *pushers,
		Topics:       *topics,
		Rate:         *rate,
		BatchSize:    *batch,
		Duration:     *duration,
		QueryWorkers: *queryLoad,
		Dir:          *dir,
		SpoolBatches: *spool,
	}.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosrunner: %v\n", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosrunner: encoding verdict: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chaosrunner: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if !v.Pass {
		fmt.Fprintf(os.Stderr, "chaosrunner: FAIL: %v\n", v.Failures)
		os.Exit(1)
	}
}
