//go:build linux

package transport

import (
	"net"
	"syscall"
	"testing"
)

// raiseFDLimit lifts the soft open-file limit to the hard one when need
// descriptors would not fit under it, and skips the test when even the
// hard limit is too low.
func raiseFDLimit(t *testing.T, need uint64) {
	t.Helper()
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("reading the open-file limit: %v", err)
	}
	if lim.Cur >= need {
		return
	}
	if lim.Max < need {
		t.Skipf("needs %d file descriptors; the hard open-file limit is %d", need, lim.Max)
	}
	lim.Cur = lim.Max
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("raising the open-file limit to %d: %v", lim.Max, err)
	}
}

// TestDedupLiveEpochsBeyondCap: more client epochs than maxDedupEpochs
// are live at once, one connection each — an agent fed by one pusher per
// node on a large system. No live mark may be evicted: when the first
// connection dies and its client redials with the same epoch and
// redelivers its acked batch, the handler must see that batch once.
func TestDedupLiveEpochsBeyondCap(t *testing.T) {
	const live = 5000
	raiseFDLimit(t, 2*live+256) // both ends of every connection are in this process
	b, log := dedupBroker(t)
	var first net.Conn
	for epoch := uint64(1); epoch <= live; epoch++ {
		conn := rawPeer(t, b)
		if _, err := conn.Write(topicFrame("/dedup/live", epoch, 1)); err != nil {
			t.Fatal(err)
		}
		expectAck(t, conn, epoch, 1)
		if epoch == 1 {
			first = conn
		}
	}
	first.Close()
	redial := rawPeer(t, b)
	if _, err := redial.Write(topicFrame("/dedup/live", 1, 1)); err != nil {
		t.Fatal(err)
	}
	expectAck(t, redial, 1, 1)
	n := 0
	for _, p := range log.delivered() {
		if p.epoch == 1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("epoch 1's acked batch, redelivered after its connection died, reached the handler %d times, want 1", n)
	}
	if got := b.marks.size(); got != live {
		t.Fatalf("tracked %d epochs with %d live connections, want all %d", got, live, live)
	}
}
