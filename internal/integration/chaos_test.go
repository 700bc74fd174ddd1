package integration

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/chaos"
	"github.com/dcdb/wintermute/internal/testseed"
)

// TestChaosSmokeRecovery drives a small pusher fleet through the real
// broker → collect → tsdb → REST pipeline while one pusher connection is
// killed mid-run and one fsync window stalls the WAL's group commits,
// then reconciles the ledger. The pushers run with the at-least-once
// spool (the scenario default), so the bar is absolute: every sent
// reading must be in the store exactly once — the killed connection's
// in-flight batches are redelivered after the automatic reconnect and
// deduplicated by the agent. This is the integration-tier entry point
// into the chaos harness; `make chaos` runs the full schedule at scale.
func TestChaosSmokeRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke takes ~5s of wall clock")
	}
	s := chaos.Scenario{
		Seed:      testseed.Seed(t),
		Pushers:   6,
		Topics:    3,
		Rate:      20,
		BatchSize: 4,
		Duration:  3 * time.Second,
		Faults: []chaos.FaultSpec{
			{Kind: chaos.FaultConnKill, At: 1 * time.Second, Kill: 1},
			{Kind: chaos.FaultFsyncStall, At: 1500 * time.Millisecond, For: time.Second, P: 1, Stall: 15 * time.Millisecond},
		},
	}
	v, err := s.Run()
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if !v.Pass {
		t.Fatalf("chaos smoke failed: %v\naccounting: %+v", v.Failures, v.Accounting)
	}
	if v.ConnsKilled != 1 {
		t.Fatalf("ConnsKilled = %d, want 1", v.ConnsKilled)
	}
	if v.InjectedFS["sync/wal"] == 0 {
		t.Fatalf("no WAL fsync stalls injected: %v", v.InjectedFS)
	}
	// Zero loss: the kill's in-flight collateral must have been
	// redelivered from the spool and stored exactly once.
	if v.Accounting.Stored != v.Accounting.Sent {
		t.Fatalf("stored %d of %d sent readings — the spool lost data",
			v.Accounting.Stored, v.Accounting.Sent)
	}
	if v.Accounting.UnackedDropped != 0 {
		t.Fatalf("%d unacked drops under spooling, want 0", v.Accounting.UnackedDropped)
	}
	// Exactness of the reconciliation itself: delivered readings and the
	// agent's own ingest counter must agree.
	if v.IngestedReadings != v.Accounting.Delivered {
		t.Fatalf("agent ingested %d readings, ledger delivered %d",
			v.IngestedReadings, v.Accounting.Delivered)
	}
}
