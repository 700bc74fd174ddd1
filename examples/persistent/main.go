// Persistent: a Collect Agent whose Storage Backend survives a kill.
//
// The example runs the full crash cycle in one process: a Collect Agent
// opens the embedded tsdb backend (write-ahead log + compressed
// segments), ingests a day's worth of simulated rack power readings, is
// abandoned mid-flight exactly like a killed daemon — no Close, no
// flush — and a second agent then recovers the directory and answers
// the same queries over REST.
//
// Run with:
//
//	go run ./examples/persistent
//
// The equivalent daemon invocation is:
//
//	collectagent -store-dir ./data -store-retention 720h
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/sensor"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "wintermute-persistent-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Life 1: ingest, then die without cleanup --------------------
	agent, err := collect.New(collect.Config{
		StoreDir:       dir,
		StoreRetention: 30 * 24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	base := time.Now().Add(-24 * time.Hour)
	topics := make([]sensor.Topic, 0, 16)
	for r := 0; r < 4; r++ {
		for n := 0; n < 4; n++ {
			topics = append(topics, sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", r, n)))
		}
	}
	for _, tp := range topics {
		batch := make([]sensor.Reading, 0, 60)
		for minute := 0; minute < 24*60; minute++ {
			batch = append(batch, sensor.At(
				250+20*float64(minute%7), base.Add(time.Duration(minute)*time.Minute)))
			if len(batch) == cap(batch) {
				agent.IngestBatch(tp, batch) // one WAL append per batch
				batch = batch[:0]
			}
		}
		agent.IngestBatch(tp, batch)
	}
	// Flush half of the data the way the janitor would on its cadence,
	// so recovery exercises both paths: segments AND WAL replay.
	if err := agent.DB.Flush(); err != nil {
		log.Fatal(err)
	}
	for _, tp := range topics {
		agent.IngestBatch(tp, []sensor.Reading{sensor.At(999, base.Add(25*time.Hour))}) // post-flush stragglers
	}
	st := agent.DB.Stats()
	log.Printf("life 1: %d readings over %d topics; %d segment(s), %d B on disk (%.2f B/reading)",
		st.TotalReadings, st.Topics, st.Segments, st.DiskBytes,
		float64(st.DiskBytes)/float64(st.TotalReadings))
	// The kill: no Agent.Close, no DB flush. Abandon stands in for
	// SIGKILL — it releases the file handles and directory lock exactly
	// as process death would, flushing nothing.
	agent.Manager.Close()
	agent.DB.Abandon()

	// --- Life 2: recover and serve -----------------------------------
	agent2, err := collect.New(collect.Config{StoreDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer agent2.Close()
	st = agent2.DB.Stats()
	log.Printf("life 2: recovered %d readings (%d in WAL-replayed heads, %d segment(s))",
		st.TotalReadings, st.HeadReadings, st.Segments)

	srv, err := rest.Serve("127.0.0.1:0", agent2.Manager, agent2.QE)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{
		fmt.Sprintf("/query?sensor=%s&from=%d&to=%d",
			topics[0], base.UnixNano(), base.Add(26*time.Hour).UnixNano()),
		"/storage",
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) > 120 {
			body = append(body[:120], []byte("...")...)
		}
		log.Printf("GET %s -> %s", path, body)
	}
	if r, ok := agent2.DB.Latest(topics[0]); ok {
		log.Printf("latest %s = %.0f W at %s (the post-flush straggler survived the kill)",
			topics[0], r.Value, r.T().Format(time.RFC3339))
	}
}
