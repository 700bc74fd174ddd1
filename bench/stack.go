package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// stack is the pipeline under test, assembled in-process with the
// daemons' defaults: TCP broker → dedup → ingest fan-in → CacheSink →
// tsdb + result cache behind collect.New, the REST API behind
// rest.Serve, and the generator's spooled pusher clients and keep-alive
// HTTP client on loopback.
type stack struct {
	dir   string
	agent *collect.Agent
	srv   *rest.Server
	pubs  []*transport.Client
	http  *http.Client
	url   string
	body  bytes.Buffer
}

// newStack opens the pipeline on dir. reg is nil in untraced runs.
func newStack(dir string, reg *telemetry.Registry, pubs int) (*stack, error) {
	agent, err := collect.New(collect.Config{
		ListenMQTT:      "127.0.0.1:0",
		StoreDir:        dir,
		ResultCacheSize: 4096,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, agent: agent}
	s.srv, err = rest.Serve("127.0.0.1:0", agent.Manager, agent.QE, rest.Options{
		ResultCache: agent.Results,
		Metrics:     reg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + s.srv.Addr()
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for i := 0; i < pubs; i++ {
		c, err := transport.DialOptions(agent.Addr(), transport.Options{SpoolBatches: 256})
		if err != nil {
			s.close()
			return nil, err
		}
		s.pubs = append(s.pubs, c)
	}
	return s, nil
}

// get issues one GET; the body is valid until the next call.
func (s *stack) get(pathQuery string) (int, []byte, error) {
	resp, err := s.http.Get(s.url + pathQuery)
	if err != nil {
		return 0, nil, err
	}
	s.body.Reset()
	_, err = io.Copy(&s.body, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, s.body.Bytes(), err
}

// close tears the pipeline down and removes its directory.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	for _, c := range s.pubs {
		keep(c.Close())
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	if s.srv != nil {
		keep(s.srv.Close())
	}
	keep(s.agent.Close())
	keep(os.RemoveAll(s.dir))
	return first
}

// drained waits until every client's spool is acknowledged and the
// ingest fan-in behind the acks has emptied into the store.
func (s *stack) drained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, c := range s.pubs {
		for {
			st := c.Stats()
			if st.Acked == st.Published {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("spool not drained: %d of %d batches acked", st.Acked, st.Published)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// PubAck is sent on enqueue, not on store: wait for the count to
	// settle.
	for last, same := -1, 0; same < 3; {
		n := s.agent.DB.TotalReadings()
		if n == last {
			same++
		} else {
			last, same = n, 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// scratchDir returns a fresh directory under bench/out.
func scratchDir() (string, error) {
	if err := os.MkdirAll(filepath.Join("bench", "out"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join("bench", "out"), "run-")
}
