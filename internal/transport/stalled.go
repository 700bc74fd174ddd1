package transport

import (
	"fmt"
	"io"
	"net"
	"time"
)

// NewStalledSubscriber connects to the broker at addr, subscribes to
// filter, and then never reads from the connection again — the
// worst-case slow reader. The chaos harness uses it to fill one broker
// connection's bounded outbound queue and exercise the
// drop-with-counter and write-deadline degradation paths. Close the
// returned connection to end the stall.
func NewStalledSubscriber(addr, filter string) (io.Closer, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := handshake(conn, 5*time.Second, []string{filter}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: stalled subscriber handshake: %w", err)
	}
	return conn, nil
}
