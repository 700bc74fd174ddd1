package transport

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// TestBrokerMetrics drives a publish through the broker to a local
// handler and checks the dcdb_broker_* series: frames and bytes in,
// readings routed, connection gauge.
func TestBrokerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := NewBroker("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	recv := make(chan struct{}, 1)
	b.SubscribeLocal(func([]Message) { recv <- struct{}{} })
	pub, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("/a/x", []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timeout")
	}

	if v, ok := reg.Value("dcdb_broker_connections"); !ok || v != 1 {
		t.Fatalf("connections = %v (ok=%v), want 1", v, ok)
	}
	if v, _ := reg.Value("dcdb_broker_readings_total"); v != 2 {
		t.Fatalf("readings routed = %v, want 2", v)
	}
	if v, _ := reg.Value("dcdb_broker_messages_routed_total"); v != 1 {
		t.Fatalf("messages routed = %v, want 1", v)
	}
	if v, _ := reg.Value("dcdb_broker_frames_total"); v < 1 {
		t.Fatalf("frames = %v, want >= 1", v)
	}
	if v, _ := reg.Value("dcdb_broker_bytes_received_total"); v <= 0 {
		t.Fatalf("bytes in = %v, want > 0", v)
	}

	// Closing the broker unregisters its connection gauge.
	b.Close()
	if _, ok := reg.Value("dcdb_broker_connections"); ok {
		t.Fatal("connection gauge still registered after Close")
	}
}
