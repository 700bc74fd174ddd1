// Command collectagent runs a DCDB Collect Agent daemon: the MQTT-style
// broker receiving Pusher data, the Storage Backend, system-wide sensor
// caches, the Wintermute framework with whole-system visibility and the
// RESTful API.
//
// Usage:
//
//	collectagent -mqtt 127.0.0.1:1883 -http 127.0.0.1:8081 \
//	             -config wintermute.json
//
// The agent stores into the embedded time-series backend (WAL +
// compressed segments) in -store-dir, ./data by default; a
// killed agent recovers every acknowledged reading on restart:
//
//	collectagent -store-dir /var/lib/dcdb -store-retention 720h
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collectagent: ")
	var (
		mqttAddr   = flag.String("mqtt", "127.0.0.1:1883", "broker listen address")
		httpAddr   = flag.String("http", "127.0.0.1:0", "REST API listen address")
		retention  = flag.Duration("retention", 180*time.Second, "sensor cache retention")
		storeDir   = flag.String("store-dir", "./data", "storage backend directory (WAL + segments)")
		storeRet   = flag.Duration("store-retention", 0, "storage backend retention window (0: keep forever)")
		storeSync  = flag.Bool("store-wal-sync", false, "acknowledge an insert only after an fsync of the storage WAL covers it")
		configPath = flag.String("config", "", "Wintermute plugin configuration (JSON)")
		threads    = flag.Int("threads", 0, "Wintermute computations run at once (0: GOMAXPROCS)")
		rcSize     = flag.Int("result-cache-size", 4096, "query result cache entries (0: disable memoization)")
		rcTTL      = flag.Duration("result-cache-ttl", 0, "bounded staleness for memoized query results (0: strict)")
		rateLimit  = flag.Float64("rate-limit", 0, "REST requests per second per client (0: unlimited)")
		rateBurst  = flag.Int("rate-burst", 0, "REST per-client burst size (0: 2x rate-limit)")
		debugAddr  = flag.String("debug-addr", "", "diagnostics listen address (pprof + /metrics; keep off the public port)")
		slowQuery  = flag.Duration("slow-query", 0, "log REST requests running at or over this duration (0: off)")
		selfMon    = flag.Duration("self-monitor", 0, "republish telemetry as /telemetry/# sensors at this interval (0: off)")
	)
	flag.Parse()

	agent, err := collect.New(collect.Config{
		ListenMQTT:       *mqttAddr,
		CacheRetention:   *retention,
		StoreDir:         *storeDir,
		StoreRetention:   *storeRet,
		StoreWALSync:     *storeSync,
		ResultCacheSize:  *rcSize,
		ResultCacheTTL:   *rcTTL,
		Metrics:          telemetry.Default,
		SelfMonitorEvery: *selfMon,
	})
	if err != nil {
		log.Fatalf("starting agent with -store-dir %q: %v", *storeDir, err)
	}
	st := agent.DB.Stats()
	log.Printf("storage backend: tsdb at %s (%d readings, %d topics, %d segments recovered)",
		*storeDir, st.TotalReadings, st.Topics, st.Segments)

	if *configPath != "" {
		if err := agent.Manager.LoadConfigFile(*configPath); err != nil {
			log.Fatal(err)
		}
	}
	// A -threads flag beats the config file's threads field.
	if *threads > 0 {
		agent.Manager.SetThreads(*threads)
	}

	srv, err := rest.Serve(*httpAddr, agent.Manager, agent.QE, rest.Options{
		ResultCache: agent.Results,
		RateLimit:   *rateLimit,
		RateBurst:   *rateBurst,
		Metrics:     telemetry.Default,
		SlowQuery:   *slowQuery,
	})
	if err != nil {
		log.Fatal(err)
	}
	var dbg *rest.DebugServer
	if *debugAddr != "" {
		dbg, err = rest.ServeDebug(*debugAddr, telemetry.Default)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("diagnostics (pprof + /metrics) on http://%s", dbg.Addr())
	}
	agent.Start()
	log.Printf("broker on %s; REST on http://%s; %d wintermute threads",
		agent.Addr(), srv.Addr(), agent.Manager.Threads())
	fmt.Printf("MQTT: %s\nREST: http://%s\n", agent.Addr(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if dbg != nil {
		_ = dbg.Close()
	}
	_ = srv.Close()
	_ = agent.Close() // flushes and closes the tsdb backend
}
